"""Wire encoding, snapshots, and the TCP daemon."""

import hashlib
import io
import json
import os
import re
import socket
import stat
import struct
import sys
import threading
import time
import tracemalloc
import zlib
from contextlib import contextmanager
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from mtfuse import cli
from mtfuse import daemon as daemon_mod
from mtfuse import protocol as proto
from mtfuse.client import Client, PrivateData, predict_client
from mtfuse.daemon import (
    DaemonConfig,
    RemoteServer,
    load_daemon_config,
    serve,
    start_server,
)
from mtfuse.errors import (
    ChecksumMismatch,
    InvalidInput,
    MalformedFrame,
    NonPositiveWeight,
    ProtocolError,
    Unauthorized,
    UnexpectedMessage,
    UnsupportedVersion,
)
from mtfuse.kernels import (
    LOOKUP,
    BiasBasis,
    InputPoint,
    KernelSpec,
    MixedEffectConfig,
    Pool,
    eval_kernel,
)
from mtfuse.linalg import _tri
from mtfuse.offline import (
    Dataset,
    build_index_structures,
    merge_repeats,
    predictions_grid,
    solve_condensed,
)
from mtfuse.server import (
    CASE_NEW_INPUT,
    CASE_REPEAT_GLOBAL,
    CASE_REPEAT_TASK,
    ClientModel,
    ServerEngine,
)

from util import (
    make_config,
    make_inputs,
    pool_of,
    probe_points,
    random_instance,
    random_message,
    rel_err,
    stream_into_engine,
)


@contextmanager
def daemon(cfg, tokens):
    eng = ServerEngine(cfg)
    srv = start_server(eng, ("127.0.0.1", 0), tokens)
    try:
        yield eng, srv
    finally:
        srv.shutdown()
        srv.server_close()


class TestMessageRoundTrip:
    def test_get_disclosed(self):
        for since in (0, 7, (1 << 32) - 1):
            msg = proto.GetDisclosed(since=since)
            assert proto.decode(proto.encode(msg)) == msg

    def test_disclosed_empty(self):
        for since in (0, 3):
            msg = proto.Disclosed(
                epoch=0,
                since=since,
                inputs=Pool(),
                y_cond=np.zeros(since),
                h_packed=np.zeros(since * (since + 1) // 2),
                lower=np.zeros(0),
                d=np.zeros(0),
                m=np.zeros(0),
            )
            back = proto.decode(proto.encode(msg))
            assert back == msg
            assert back.y_cond.shape == (since,)
            assert back.h_packed.shape == (since * (since + 1) // 2,)

    def test_submit_with_and_without_features(self):
        for feats in (None, np.array([0.5, -1.0]), np.zeros(0)):
            msg = proto.SubmitExample(
                task=3, token=b"t", key=b"song", features=feats, y=1.5, w=0.5
            )
            back = proto.decode(proto.encode(msg))
            assert back == msg
            if feats is None:
                assert back.features is None
            else:
                assert back.features.shape == feats.shape

    def test_ack_cases(self):
        for case in (CASE_REPEAT_TASK, "repeat-global", CASE_NEW_INPUT):
            msg = proto.Ack(epoch=7, case=case)
            assert proto.decode(proto.encode(msg)) == msg

    def test_config_with_lookup_kernels(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        spec = KernelSpec.lookup([b"a", b"b", b"c"], a + a.T)
        msg = proto.Config(
            alpha=0.3,
            lam=0.01,
            shared=spec,
            individual=KernelSpec.linear_tags(),
            bias_kind=BiasBasis.CONSTANT,
        )
        back = proto.decode(proto.encode(msg))
        assert back == msg
        assert back.shared == spec

    def test_error_unicode_detail(self):
        msg = proto.Error(code=proto.ERR_UNKNOWN_TASK, detail="tâche 17 ≠ connue")
        assert proto.decode(proto.encode(msg)) == msg

    def test_encoding_canonical(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            msg = random_message(rng)
            data = proto.encode(msg)
            assert proto.encode(proto.decode(data)) == data

    def test_fuzzed_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            msg = random_message(rng)
            assert proto.decode(proto.encode(msg)) == msg

    def test_fuzz_draws_every_message_in_the_table(self):
        # a message added to the table must be added to the fuzzer too
        rng = np.random.default_rng(2)
        drawn = {type(random_message(rng)) for _ in range(300)}
        assert drawn == {row.cls for row in proto._ROWS}

    def test_readme_wire_table_lists_every_message(self):
        # README's table is where field types are written out: a message
        # added to _ROWS must be added there too, under its tag
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            section = fh.read().split("\n## Wire format\n", 1)[1].split("\n## ", 1)[0]
        listed = [(int(tag), name) for tag, name in
                  re.findall(r"^\| *(\d+) *\| *`(\w+)` *\|", section, re.M)]
        assert listed == [(row.tag, row.cls.__name__) for row in proto._ROWS]

    def test_readme_snapshot_table_lists_every_record(self):
        # a record without a tag (a snapshot part) is written out in
        # README's record table, each of its fields in byte order
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            section = fh.read().split("\n## Wire format\n", 1)[1].split("\n## ", 1)[0]
        listed = [(name, re.findall(r"`(\w+)`", cells)) for name, cells in
                  re.findall(r"^\| *`(\w+)` *\|(.*)\|$", section, re.M)]
        records = [row for row in vars(proto).values()
                   if isinstance(row, proto._Row) and row.tag is None]
        assert [row.cls.__name__ for row in records] == [
            "SnapshotHead", "TaskCount", "TaskBlock"]
        assert listed == [(row.cls.__name__, [name for name, _ in row.fields])
                          for row in records]


def _lookup_engine(rng, alpha):
    # keys without features, so the snapshot also pins the no-features flag
    keys = [b"song-%d" % i for i in range(6)]
    a = rng.standard_normal((6, 6))
    spec = KernelSpec.lookup(keys, a @ a.T + 6.0 * np.eye(6))
    cfg = MixedEffectConfig(alpha=alpha, lam=0.1, shared=spec, individual=spec,
                            bias=BiasBasis.constant())
    eng = ServerEngine(cfg)
    for _ in range(40):
        key = keys[int(rng.integers(0, 6))]
        eng.receive_example(int(rng.integers(0, 4)), InputPoint(key, None),
                            float(rng.normal()), float(rng.uniform(0.5, 2.0)))
    return eng


class TestGoldenBytes:
    """Message and snapshot bytes pinned by SHA-256.

    Both were computed when L's rows began to travel as stored, each
    with its 0.0 diagonal slot (wire and snapshot version 5).  Against
    version 4, every message kept its bytes apart from the version byte,
    and each snapshot its bytes apart from the version word, L's count
    word, L's slots (8 zero bytes after each row) and the CRC.  Version
    4 in turn kept version 3's bytes apart from the version, the since
    word after the epoch and the CRC.  A codec change that moves one
    byte of either format fails here.  The snapshot digests also pin the
    engine's floating-point arithmetic (numpy 2.4, OpenBLAS 0.3, x86-64).
    """

    MESSAGES = "df39d653abac49b9ee16d79a8ad485ad9ba6c0ff9757fd3f49c0436efef5b48c"
    SNAPSHOTS = {
        0.0: "7ef7e409a0b8e5594e30e61350aad30e0019913ba8ed55ccfd344411faad2185",
        0.5: "60d9582bd28bd1773443db92911321ec1dfd588048774808c5dbf2ce21cc2079",
        1.0: "3584a9d50a45ae2900ae81ac40acc224faaf161a7c485c33540474c4cb50d024",
    }

    def test_message_bytes(self):
        h = hashlib.sha256()
        rng = np.random.default_rng(6061)
        for _ in range(400):
            data = proto.encode(random_message(rng))
            h.update(struct.pack("<I", len(data)) + data)
        assert h.hexdigest() == self.MESSAGES

    def test_snapshot_bytes(self):
        rng = np.random.default_rng(6062)
        got = {}
        for alpha in (0.0, 0.5, 1.0):
            if alpha == 0.5:
                eng = _lookup_engine(rng, alpha)
            else:
                ds, cfg, _ = random_instance(rng, alpha=alpha, d=1)
                eng = stream_into_engine(ServerEngine(cfg), ds.triples)
            got[alpha] = hashlib.sha256(proto.save_snapshot(eng)).hexdigest()
        assert got == self.SNAPSHOTS


class TestMalformedInput:
    def test_empty_and_truncated(self):
        with pytest.raises(MalformedFrame):
            proto.decode(b"")
        data = proto.encode(proto.Ack(epoch=1, case=CASE_NEW_INPUT))
        with pytest.raises(MalformedFrame):
            proto.decode(data[:-1])

    def test_trailing_bytes(self):
        data = proto.encode(proto.GetDisclosed(since=0))
        with pytest.raises(MalformedFrame):
            proto.decode(data + b"\x00")

    def test_wrong_wire_version(self):
        data = proto.encode(proto.GetDisclosed(since=0))
        with pytest.raises(UnsupportedVersion):
            proto.decode(bytes([99]) + data[1:])

    def test_unknown_tag(self):
        with pytest.raises(MalformedFrame):
            proto.decode(bytes([proto.WIRE_VERSION, 200]))

    def test_bad_case_tag(self):
        data = bytearray(proto.encode(proto.Ack(epoch=1, case=CASE_NEW_INPUT)))
        data[-1] = 77
        with pytest.raises(MalformedFrame):
            proto.decode(bytes(data))

    def test_bad_utf8_text(self):
        data = proto.encode(proto.Error(code=proto.ERR_INTERNAL, detail="ab"))
        with pytest.raises(MalformedFrame, match="UTF-8"):
            proto.decode(data[:-2] + b"\xff\xfe")

    def test_repeated_lookup_key(self):
        spec = KernelSpec.lookup([b"a", b"b"], [[2.0, 1.0], [1.0, 2.0]])
        msg = proto.Config(alpha=0.5, lam=0.1, shared=spec,
                           individual=KernelSpec.linear_tags(),
                           bias_kind=BiasBasis.CONSTANT)
        data = proto.encode(msg)
        key_b = struct.pack("<I", 1) + b"b"
        assert data.count(key_b) == 1
        with pytest.raises(MalformedFrame, match="duplicate"):
            proto.decode(data.replace(key_b, struct.pack("<I", 1) + b"a"))

    def test_lookup_key_count_past_the_payload_refused_before_any_key(self):
        # n keys take 4n bytes or more and their table 8 n(n+1)/2: a count
        # whose keys and table cannot fit in the bytes left is refused
        # before any key is read, one that fits is read to the table
        for claim in (0xFFFFFFFF, 1 << 17, 511):
            with pytest.raises(MalformedFrame, match="lookup table of %d keys" % claim):
                proto.decode(_lookup_config_claiming(claim, daemon_mod.MAX_REQUEST_FRAME))
        head = len(_lookup_config_claiming(0, 0))
        fits = _lookup_config_claiming(10, head + 4 * 10 + 8 * 55)
        with pytest.raises(MalformedFrame, match="lookup table of 11 keys"):
            proto.decode(fits[:head - 4] + struct.pack("<I", 11) + fits[head:])
        with pytest.raises(MalformedFrame, match="bad lookup table"):  # ten empty keys
            proto.decode(fits)

    def test_corrupted_payloads_raise_only_frame_errors(self):
        rng = np.random.default_rng(19)
        for _ in range(3000):
            data = bytearray(proto.encode(random_message(rng)))
            for _ in range(int(rng.integers(1, 4))):
                if len(data) > 2:
                    data[int(rng.integers(2, len(data)))] = int(rng.integers(0, 256))
            cut = int(rng.integers(0, len(data) + 1))
            for payload in (bytes(data), bytes(data[:cut])):
                try:
                    proto.decode(payload)
                except (MalformedFrame, UnsupportedVersion):
                    pass

    def test_frames_at_and_past_the_joined_size(self):
        import io

        class Writes(io.BytesIO):
            def write(self, b):
                self.writes.append(b)
                return super().write(b)

        # a payload of 26 + 8n + 4 bytes: a frame under the joined size is
        # one write; an array at or past it is written as it is, uncopied,
        # between the runs before and after it
        for n in ((proto._RUN - 34) // 8, proto._RUN // 8):
            msg = proto.TaskCoeffs(epoch=1, since=n, inputs=Pool(), b=np.zeros(0),
                                   a_cond=np.arange(float(n)), a=np.zeros(0), slots=())
            out = Writes()
            out.writes = []
            proto.write_message(out, msg)
            size = len(proto.encode(msg))
            assert size == 30 + 8 * n
            sizes = [len(b) for b in out.writes]
            if 4 + size < proto._RUN:
                assert sizes == [4 + size]
            else:
                assert sizes == [4 + 26, 8 * n, 4]
                assert np.shares_memory(np.frombuffer(out.writes[1], np.uint8), msg.a_cond)
            out.seek(0)
            assert proto.read_message(out) == msg
            assert out.getvalue() == struct.pack("<I", size) + proto.encode(msg)

    def test_stream_framing_errors(self):
        import io

        def frame(payload, size=None):
            return struct.pack("<I", len(payload) if size is None else size) + payload

        assert proto.read_message(io.BytesIO(b"")) is None
        ack = proto.encode(proto.Ack(epoch=1, case=CASE_NEW_INPUT))
        coeffs = proto.encode(proto.TaskCoeffs(epoch=1, since=0, inputs=Pool(),
                                               b=np.zeros(0), a_cond=np.zeros(0),
                                               a=np.zeros(0), slots=()))
        at_b = len(coeffs) - 8  # b's count, then a_cond's none and a's count
        cases = [
            (b"\x01\x02", MalformedFrame),  # a header cut short
            (struct.pack("<I", proto.MAX_FRAME + 1), MalformedFrame),
            (frame(b"abc", 10), MalformedFrame),
            # a frame cut short is malformed, whatever its first bytes say
            (frame(bytes([99]) + ack[1:], len(ack) + 1), MalformedFrame),
            (frame(ack[:1] + bytes([200]) + ack[2:], len(ack) + 1), MalformedFrame),
            (frame(ack + b"\0", len(ack) + 2), MalformedFrame),
            (frame(bytes([99]) + ack[1:]), UnsupportedVersion),
            # a count past the frame is refused before its array is made
            (frame(coeffs[:at_b] + struct.pack("<I", 1 << 24) + coeffs[at_b + 4:]),
             MalformedFrame),
        ]
        for data, error in cases:
            tracemalloc.start()
            try:
                with pytest.raises(error):
                    proto.read_message(io.BytesIO(data))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (data, peak)
        # a frame refused for its type or its content is read to its end:
        # the next one reads from its own header
        config = frame(proto.encode(proto.GetConfig()))
        for data, error, accept in ((frame(ack), UnexpectedMessage, (proto.GetConfig,)),
                                    (frame(ack + b"\0"), MalformedFrame, None)):
            stream = io.BytesIO(data + config)
            with pytest.raises(error):
                proto.read_message(stream, accept=accept)
            assert proto.read_message(stream) == proto.GetConfig()


def _lookup_config_claiming(keys, size):
    # a Config payload of size bytes (or its head alone) whose shared
    # lookup kernel claims `keys` keys, padded with zero bytes: as many
    # empty keys as fit
    head = struct.pack("<BBddBI", proto.WIRE_VERSION, proto._ROW_OF_CLASS[proto.Config].tag,
                       0.5, 0.1, proto._KERNELS[LOOKUP][0], keys)
    return head + bytes(max(size - len(head), 0))


def _wire(msg):
    # msg as a reader gets it
    return proto.decode(proto.encode(msg))


def _key_twice(msg, key, other):
    # the bytes of msg with its input key `key` renamed `other`, a key
    # of the same length that msg lists too
    data = proto.encode(msg)
    assert len(key) == len(other) and data.count(key) == 1
    return data.replace(key, other)


def _disclosed(keys, feats):
    n = len(keys)
    return proto.Disclosed(epoch=4, since=0, inputs=pool_of(keys, feats),
                           y_cond=np.arange(n, dtype=float),
                           h_packed=np.ones(n * (n + 1) // 2),
                           lower=np.zeros(n * (n - 1) // 2), d=np.ones(n), m=np.ones(n))


class TestInputColumns:
    """The one layout of a pool's inputs on the wire: a kernels.Pool's
    keys and features as columns."""

    POOLS = {
        "empty": [],
        "uniform": [np.arange(3.0) + i for i in range(5)],
        "uniform D=0": [np.zeros(0)] * 4,
        "absent": [None] * 3,
        "mixed": [np.ones(2), None, np.arange(3.0), np.zeros(0), np.ones(2)],
    }

    def test_round_trips_bitwise(self):
        rng = np.random.default_rng(40)
        for name, feats in self.POOLS.items():
            # a -0.0 must survive bit for bit
            feats = [None if f is None else f * rng.choice([-0.0, 1.0], len(f))
                     for f in feats]
            keys = [b"k%d" % i + b"\x00" * i for i in range(len(feats))]
            for msg in (_disclosed(keys, feats),
                        proto.TaskCoeffs(epoch=1, since=0, inputs=pool_of(keys, feats),
                                         b=np.zeros(1), a_cond=np.zeros(len(keys)),
                                         a=np.zeros(0), slots=())):
                data = proto.encode(msg)
                back = proto.decode(data)
                assert back.inputs.keys == tuple(keys), name
                assert isinstance(back.inputs, Pool), name
                assert [x.key for x in back.inputs] == keys, name
                for got, want in zip(back.inputs, feats):
                    if want is None:
                        assert got.features is None, name
                    else:
                        f = got.features
                        assert f.dtype == np.float64 and f.shape == want.shape
                        assert f.tobytes() == want.tobytes(), name
                assert proto.encode(back) == data, name
                assert back == msg, name

    def test_uniform_pool_decodes_to_one_block(self):
        feats = self.POOLS["uniform"]
        back = proto.decode(proto.encode(_disclosed([b"a%d" % i for i in range(5)], feats)))
        values = back.inputs.values
        owner = values if values.base is None else values.base
        assert owner.flags.owndata and values.ctypes.data % 8 == 0
        block = back.inputs.prefix()
        assert block.shape == (5, 3) and np.shares_memory(block, values)
        assert block.tobytes() == np.stack(feats).tobytes()
        pools = {}
        for name in ("mixed", "absent", "empty"):
            pool = self.POOLS[name]
            pools[name] = proto.decode(proto.encode(_disclosed(
                [b"a%d" % i for i in range(len(pool))], pool))).inputs
            assert pools[name].prefix() is None, name
        # as in a pool that grew, the leading inputs with one length are rows
        assert pools["mixed"].prefix(1).tobytes() == np.ones(2).tobytes()
        assert pools["mixed"].prefix(2) is None
        assert pools["absent"].prefix(1) is None and len(pools["empty"]) == 0

    def test_lengths_that_do_not_fit_rejected(self):
        keys = [b"key-%d" % i for i in range(3)]
        data = proto.encode(_disclosed(keys, self.POOLS["uniform"][:3]))
        # version, tag, epoch, since; then n, the key lengths, the keys,
        # the feature lengths and the value count
        at_n = 2 + 8 + 4
        at_klen = at_n + 4
        at_flen = at_klen + 3 * 4 + sum(map(len, keys))
        at_count = at_flen + 3 * 4
        assert struct.unpack_from("<I", data, at_count) == (9,)

        def patched(at, value):
            out = bytearray(data)
            struct.pack_into("<I", out, at, value)
            return bytes(out)

        bad = (
            (patched(at_n, 0xFFFFFFFF), "truncated"),  # n key lengths past the end
            (patched(at_klen, 0xFFFFFF00), "truncated"),  # a key past the end
            (patched(at_flen, 0xFFFFFF00), "do not fit"),  # a feature vector
            (patched(at_count, 8), "8 feature values do not fit"),
            (patched(at_count, 10), "10 feature values do not fit"),
        )
        for payload, match in bad:
            with pytest.raises(MalformedFrame, match=match):
                proto.decode(payload)
        # lengths and count that agree, but run past the payload
        grown = bytearray(patched(at_flen, 3 + (1 << 20)))
        struct.pack_into("<I", grown, at_count, 9 + (1 << 20))
        with pytest.raises(MalformedFrame, match="truncated"):
            proto.decode(bytes(grown))

    def test_key_listed_twice_rejected(self):
        feats = self.POOLS["uniform"][:2]
        data = _key_twice(_disclosed([b"same", b"sbme"], feats), b"sbme", b"same")
        with pytest.raises(MalformedFrame, match="input key b'same' listed twice"):
            proto.decode(data)


class TestArrayFields:
    """The form each array field decodes to, over every record: an f64
    field is an array of its own, writable, that shares nothing with the
    payload, a u32 field is a tuple of ints."""

    FORMS = {
        ("SubmitExample", "features"): "f64",
        ("Disclosed", "y_cond"): "f64",
        ("Disclosed", "h_packed"): "f64",
        ("Disclosed", "lower"): "f64",
        ("Disclosed", "d"): "f64",
        ("Disclosed", "m"): "f64",
        ("TaskCoeffs", "b"): "f64",
        ("TaskCoeffs", "a_cond"): "f64",
        ("TaskCoeffs", "a"): "f64",
        ("TaskCoeffs", "slots"): "u32",
        ("TaskBlock", "slots"): "u32",
        ("TaskBlock", "y"): "f64",
        ("TaskBlock", "w"): "f64",
        ("TaskBlock", "r_packed"): "f64",
    }

    @staticmethod
    def _samples():
        # one record of each row, every array in it non-empty
        rng = np.random.default_rng(44)
        ds, cfg, _ = random_instance(rng, alpha=0.5, d=1)
        eng = stream_into_engine(ServerEngine(cfg), ds.triples)
        task, st = next((t, st) for t, st in eng.tasks.items() if len(st.slots) > 1)
        spec = KernelSpec.lookup([b"a", b"b"], [[2.0, 1.0], [1.0, 2.0]])
        return {
            "SubmitExample": proto.SubmitExample(1, b"t", b"k", np.arange(3.0), 1.0, 1.0),
            "Ack": proto.Ack(3, CASE_NEW_INPUT),
            "GetDisclosed": proto.GetDisclosed(2),
            "Disclosed": proto.disclosed_to_message(eng.get_disclosed(), since=1),
            "GetTaskCoeffs": proto.GetTaskCoeffs(task, b"t", 1),
            "TaskCoeffs": proto.task_coeffs_to_message(eng.task_coefficients(task), 1),
            "GetConfig": proto.GetConfig(),
            "Config": proto.Config(0.5, 0.1, spec, spec, BiasBasis.CONSTANT),
            "Error": proto.Error(proto.ERR_INTERNAL, "x"),
            "SnapshotHead": proto._HEAD.cls(proto.MAGIC, proto.SNAPSHOT_VERSION),
            "TaskCount": proto._TASK_COUNT.cls(1),
            "TaskBlock": proto._TASK_BLOCK.cls(task, st.slots, st.y.values, st.w.values,
                                               st.R.packed),
        }

    def test_every_array_field_decodes_to_its_form(self):
        samples = self._samples()
        rows = list(proto._ROWS) + [row for row in vars(proto).values()
                                    if isinstance(row, proto._Row) and row.tag is None]
        assert sorted(samples) == sorted(row.cls.__name__ for row in rows)
        seen = set()
        for row in rows:
            name, w = row.cls.__name__, []
            proto._write_body(w, row, samples[name])
            payload = b"".join(w)
            r = proto._Reader(io.BytesIO(payload), len(payload))
            back = proto._read_body(r, row)
            r.done()
            wire = np.frombuffer(payload, dtype=np.uint8)
            for field, _ in row.fields:
                value, form = getattr(back, field), self.FORMS.get((name, field))
                if field == "inputs":  # the pool's feature values are its own
                    value, form = value.values, "pool"
                if form is None:
                    assert not isinstance(value, np.ndarray), (name, field)
                    continue
                seen.add((name, field))
                assert len(value) > 0, (name, field)
                if form == "u32":
                    assert type(value) is tuple, (name, field)
                    assert all(type(v) is int for v in value), (name, field)
                    continue
                assert value.dtype == np.float64, (name, field)
                assert not np.shares_memory(value, wire), (name, field)
                if form == "f64":
                    assert value.flags.owndata and value.flags.writeable, (name, field)
            if name == "Config":  # the lookup table is a matrix of its own
                for spec in (back.shared, back.individual):
                    assert not np.shares_memory(spec.table.matrix, wire)
        assert seen == set(self.FORMS) | {("Disclosed", "inputs"), ("TaskCoeffs", "inputs")}


class TestSchemaPrivacy:
    def test_public_variants_have_no_private_fields(self):
        # the disclosed surface carries the condensed vector and H only;
        # raw responses/weights exist solely in SubmitExample
        public = (proto.Disclosed, proto.Ack, proto.Config, proto.TaskCoeffs)
        for cls in public:
            names = {f.name for f in fields(cls)}
            assert "y" not in names
            assert "w" not in names
        assert {f.name for f in fields(proto.Disclosed)} == {
            "epoch", "since", "inputs", "y_cond", "h_packed", "lower", "d", "m",
        }
        assert {f.name for f in fields(proto.TaskCoeffs)} == {
            "epoch", "since", "inputs", "b", "a_cond", "a", "slots",
        }
        assert {f.name for f in fields(proto.Ack)} == {"epoch", "case"}
        assert {f.name for f in fields(proto.Config)} == {
            "alpha", "lam", "shared", "individual", "bias_kind",
        }

    def test_task_blocks_are_no_messages(self):
        # a snapshot's task block holds a task's raw responses and
        # weights: it has no tag, so it never travels as a message, and
        # SubmitExample is the one message with a y or a w
        block = proto._TASK_BLOCK.cls(task=0, slots=(0,), y=np.ones(1), w=np.ones(1),
                                      r_packed=np.ones(1))
        with pytest.raises(TypeError):
            proto.encode(block)
        assert proto._TASK_BLOCK.tag is None and proto._TASK_BLOCK not in proto._ROWS
        private = [row.cls for row in proto._ROWS
                   if {"y", "w"} & {name for name, _ in row.fields}]
        assert private == [proto.SubmitExample]

    def test_disclosed_bytes_never_contain_raw_responses(self):
        # distinctive responses/weights; their 8-byte patterns must not
        # appear anywhere in the disclosed encoding
        rng = np.random.default_rng(3)
        cfg = make_config(0.5, 0.1, d=1)
        xs = make_inputs(rng, 5, unit=True)
        ys = [0.9182736455463728, -1.2345678987654321, 0.5647382910293847]
        ws = [1.3579246801357924, 0.8642097531864209]
        eng = ServerEngine(cfg)
        for i, x in enumerate(xs[:3]):
            eng.receive_example(0, x, ys[i], ws[i % 2])
        eng.receive_example(1, xs[3], ys[0], ws[1])
        # precondition: condensation actually transformed the responses
        assert not set(np.asarray(eng.get_disclosed().y_cond)) & set(ys)
        blob = proto.encode(proto.disclosed_to_message(eng.get_disclosed()))
        blob += proto.encode(proto.config_to_message(eng.get_config()))
        for v in ys + ws:
            assert struct.pack("<d", v) not in blob

    def test_factors_schema_and_bytes_hold_no_raw_responses(self):
        # a request names only what the caller holds; a reply's factor
        # rows, full or since a count, hold no response or weight
        assert {f.name for f in fields(proto.GetDisclosed)} == {"since"}
        assert {f.name for f in fields(proto.GetTaskCoeffs)} == {"task", "token", "since"}
        rng = np.random.default_rng(3)
        cfg = make_config(0.5, 0.1, d=1)
        xs = make_inputs(rng, 5, unit=True)
        ys = [0.9182736455463728, -1.2345678987654321, 0.5647382910293847]
        ws = [1.3579246801357924, 0.8642097531864209]
        eng = ServerEngine(cfg)
        for i, x in enumerate(xs):
            eng.receive_example(i % 2, x, ys[i % 3], ws[i % 2])
        blob = b"".join(proto.encode(proto.disclosed_to_message(eng.get_disclosed(), since))
                        for since in (0, 2))
        blob += proto.encode(proto.GetDisclosed(since=eng.n))
        for v in ys + ws:
            assert struct.pack("<d", v) not in blob


def _rated_engine(rng, n=24, tasks=6, per=5):
    # n pooled inputs (8-dim, unit), each first rated by task i % tasks,
    # then per more ratings by each task: a co-rating pattern about half
    # full
    eng = ServerEngine(make_config(0.5, 0.1, d=1))
    xs = make_inputs(rng, n, dim=8, unit=True)
    for i, x in enumerate(xs):
        eng.receive_example(i % tasks, x, float(rng.normal()), float(rng.uniform(0.5, 2.0)))
    for t in range(tasks):
        for s in rng.choice(n, per, replace=False):
            eng.receive_example(t, xs[s], float(rng.normal()), float(rng.uniform(0.5, 2.0)))
    return eng


class TestInformationPrivacy:
    """What the public summaries reveal beyond their schema (README,
    Privacy model), read from get_disclosed() and the config alone."""

    def test_consecutive_summaries_reveal_a_first_observation(self):
        # a new task's first observation (y, w) on the pooled input at
        # slot s adds mu v to y_cond and alpha gamma v v^T to H^-1, with
        # v = -L[s]^T, mu = -gamma y and 1/gamma = lam w + (1 - alpha)
        # k_ind(x, x); s is the last entry that y_cond's change moves
        rng = np.random.default_rng(71)
        eng = _rated_engine(rng)
        cfg = eng.get_config()
        for k in range(20):
            before = eng.get_disclosed()
            slot = int(rng.integers(0, eng.n))
            y = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
            w = float(rng.uniform(0.5, 2.0))
            eng.receive_example(100 + k, before.inputs[slot], y, w)
            after = eng.get_disclosed()
            dy = np.asarray(after.y_cond) - np.asarray(before.y_cond)
            s = int(np.flatnonzero(dy)[-1])
            assert s == slot
            v = -after.factors.L.dense()[s]
            dhinv = np.linalg.inv(after.H.to_dense()) - np.linalg.inv(before.H.to_dense())
            vv = v @ v
            gamma = (v @ dhinv @ v) / vv**2 / cfg.alpha
            mu = (v @ dy) / vv
            x = after.inputs[s]
            k_ind = eval_kernel(cfg.individual, x, x)
            got = (-mu / gamma, (1.0 / gamma - (1.0 - cfg.alpha) * k_ind) / cfg.lam)
            np.testing.assert_allclose(got, (y, w), rtol=1e-9, atol=0)

    def test_one_summary_shows_which_inputs_share_a_task(self):
        # G = L^-T (H^-1 - D^-1) L^-1 / alpha is the sum of the task
        # inverses, each over its task's slots: G is nonzero exactly on
        # the private co-rating pattern
        eng = _rated_engine(np.random.default_rng(72))
        db, alpha = eng.get_disclosed(), eng.get_config().alpha
        l_inv = np.linalg.inv(db.factors.L.dense())
        h_inv = np.linalg.inv(db.H.to_dense())
        g = l_inv.T @ (h_inv - np.diag(1.0 / db.factors.D.values)) @ l_inv / alpha
        pattern = np.zeros(g.shape, dtype=bool)
        for st in eng.tasks.values():
            pattern[np.ix_(st.slots, st.slots)] = True
        assert 0 < pattern.sum() < pattern.size
        top = np.abs(g).max()
        assert np.abs(g[~pattern]).max() <= 1e-10 * top
        assert np.abs(g[pattern]).min() >= 1e-6 * top


class TestDisclosedConversion:
    def test_round_trip_preserves_arrays(self):
        rng = np.random.default_rng(4)
        ds, cfg, _ = random_instance(rng, alpha=0.5, d=1)
        eng = stream_into_engine(ServerEngine(cfg), ds.triples)
        db = eng.get_disclosed()
        back = proto.Seen().disclosed(proto.disclosed_to_message(db))
        assert back.epoch == db.epoch
        assert [x.key for x in back.inputs] == [x.key for x in db.inputs]
        assert np.asarray(back.y_cond).tobytes() == np.asarray(db.y_cond).tobytes()
        assert back.H.packed.tobytes() == db.H.packed.tobytes()

    def test_duplicate_input_key_rejected(self):
        # a key listed twice would leave its first slot unreachable, and
        # a later rating of that key would land on the second slot
        eng = ServerEngine(make_config(0.5, 0.1, d=1))
        xs = make_inputs(np.random.default_rng(21), 2, unit=True)
        for t, x in enumerate(xs):
            eng.receive_example(t, x, 1.0, 1.0)
        data = _key_twice(proto.disclosed_to_message(eng.get_disclosed()), xs[1].key,
                          xs[0].key)
        with pytest.raises(MalformedFrame, match="input key b'x-0000' listed twice"):
            proto.Seen().disclosed(proto.decode(data))

    def test_task_coeffs_slot_or_key_out_of_place_rejected(self):
        eng = ServerEngine(make_config(0.5, 0.1, d=1))
        xs = make_inputs(np.random.default_rng(24), 2, unit=True)
        for x in xs:
            eng.receive_example(0, x, 1.0, 1.0)
        msg = proto.task_coeffs_to_message(eng.task_coefficients(0))
        bad_slot = proto.encode(replace(msg, slots=(0, 2)))
        bad_key = _key_twice(msg, xs[1].key, xs[0].key)
        for bad, match in ((bad_slot, "slot 2 out of range"),
                           (bad_key, "input key b'x-0000' listed twice")):
            with pytest.raises(MalformedFrame, match=match):
                proto.Seen().task_coeffs(proto.decode(bad), 0)

    def test_factors_round_trip_bitwise(self):
        # the factors read at once, or as a head and the rows since it
        rng = np.random.default_rng(29)
        for d in (0, 1):
            ds, cfg, _ = random_instance(rng, alpha=0.5, d=d, n_max=60)
            total = len({t.x.key for t in ds.triples})
            eng, rest = ServerEngine(cfg), list(ds.triples)
            while eng.n < total // 2:
                t = rest.pop(0)
                eng.receive_example(t.task, t.x, t.y, t.w)
            seen = proto.Seen()
            head = seen.disclosed(_wire(proto.disclosed_to_message(
                eng.get_disclosed())))
            stream_into_engine(eng, rest)
            full = proto.Seen().disclosed(_wire(proto.disclosed_to_message(
                eng.get_disclosed())))
            delta = seen.disclosed(_wire(proto.disclosed_to_message(
                eng.get_disclosed(), head.factors.n)))
            assert head.factors.n < eng.n
            for back in (full.factors, delta.factors):
                assert back.n == eng.n and back.bias_dim == d
                # one buffer of the capacity the server's appends grew
                assert back.L._buf.shape == eng.factors.L._buf.shape
                assert back.L.dense().tobytes() == eng.factors.L.dense().tobytes()
                assert back.D.values.tobytes() == eng.factors.D.values.tobytes()
                assert back.M.tobytes() == eng.factors.M.tobytes()

    def test_factors_that_do_not_fit_rejected(self):
        eng = ServerEngine(make_config(0.5, 0.1, d=1))
        for t, x in enumerate(make_inputs(np.random.default_rng(30), 3, unit=True)):
            eng.receive_example(t, x, 1.0, 1.0)
        db = eng.get_disclosed()
        msg = proto.disclosed_to_message(db)
        bad = (
            (replace(msg, d=msg.d[:-1]), "factors of 2 inputs, not 3"),
            # L's rows as stored, one entry short
            (replace(msg, lower=msg.lower[:-1]), "5 entries of L do not fit rows 0..3"),
            (replace(msg, m=msg.m[:-1]), "2 entries of M are not a multiple of 3"),
        )
        for reply, match in bad:
            with pytest.raises(MalformedFrame, match=match):
                proto.Seen().disclosed(_wire(reply))
        # two bias columns decode, but do not fit a config with one
        back = proto.Seen().disclosed(_wire(replace(msg, m=np.repeat(msg.m, 2))))
        assert back.factors.bias_dim == 2
        with pytest.raises(MalformedFrame, match="1 bias columns"):
            ServerEngine.from_disclosed(back, eng.cfg)

    def test_config_round_trip(self):
        for alpha, d in ((0.0, 0), (0.5, 1), (1.0, 1)):
            cfg = make_config(alpha, 0.1, d=d)
            back = proto.config_from_message(
                proto.decode(proto.encode(proto.config_to_message(cfg)))
            )
            assert back.alpha == cfg.alpha
            assert back.lam == cfg.lam
            assert back.shared == cfg.shared
            assert back.individual == cfg.individual
            assert back.bias_dim == cfg.bias_dim

    def test_unencodable_configs_rejected(self):
        cfg = MixedEffectConfig(
            alpha=0.5,
            lam=0.1,
            shared=KernelSpec.rbf_tags(),
            individual=KernelSpec.linear_tags(),
            individual_overrides={0: KernelSpec.rbf_tags()},
        )
        with pytest.raises(ValueError):
            proto.config_to_message(cfg)


def _with_crc(body):
    return bytes(body) + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def _snapshot_with_slot(value):
    # a snapshot of three inputs whose L has value in row 1's diagonal slot
    eng = ServerEngine(make_config(0.5, 0.1, d=1))
    for t, x in enumerate(make_inputs(np.random.default_rng(48), 3, unit=True)):
        eng.receive_example(t, x, 1.0, 1.0)
    good, rows = proto.save_snapshot(eng), eng.factors.L.rows().tobytes()
    at = good.index(rows) + 8 * (_tri(2) - 1)
    assert good.count(rows) == 1 and good[at : at + 8] == bytes(8)
    return _with_crc(good[:at] + struct.pack("<d", value) + good[at + 8 : -4])


class TestStoredRowsOfL:
    """L travels as it is stored: rows since..n-1, each with its 0.0
    diagonal slot, one view of the buffer out and one copy in."""

    def test_message_holds_one_view_of_the_rows_sent(self):
        rng = np.random.default_rng(49)
        eng = ServerEngine(make_config(0.5, 0.1, d=1))
        for t, x in enumerate(make_inputs(rng, 9, unit=True)):
            eng.receive_example(t % 2, x, float(rng.normal()), 1.0)
        db = eng.get_disclosed()
        for since in (0, 4, 9):
            lower = proto.disclosed_to_message(db, since).lower
            assert isinstance(lower, np.ndarray) and lower.base is db.factors.L._buf
            assert len(lower) == _tri(9) - _tri(since)
            assert since == 9 or np.shares_memory(lower, db.factors.L._buf)

    def test_reads_send_the_rows_past_since_with_zero_slots(self):
        rng = np.random.default_rng(50)
        xs = make_inputs(rng, 12, unit=True)
        eng, seen = ServerEngine(make_config(0.5, 0.1, d=1)), proto.Seen()
        for since, upto in ((0, 5), (5, 12)):
            for t, x in enumerate(xs[since:upto]):
                eng.receive_example(t % 3, x, float(rng.normal()), 1.0)
            assert seen.factors.n == since
            reply = _wire(proto.disclosed_to_message(eng.get_disclosed(), since))
            assert reply.lower.tobytes() == eng.factors.L.rows(since).tobytes()
            seen.disclosed(reply)
            stored = seen.factors.L.rows()
            assert seen.factors.n == upto
            assert stored.tobytes() == eng.factors.L.rows().tobytes()
            slots = stored[_tri(np.arange(1, upto + 1)) - 1]
            assert not slots.view(np.uint64).any()  # 0.0, not -0.0

    def test_nonzero_slot_refused_with_nothing_appended(self):
        # one encoding per L: a slot of 1.0, -0.0 or NaN in the first or
        # the last row sent, at a full or a delta read
        rng = np.random.default_rng(51)
        xs = make_inputs(rng, 6, unit=True)
        eng = ServerEngine(make_config(0.5, 0.1, d=1))
        for t, x in enumerate(xs[:2]):
            eng.receive_example(t, x, 1.0, 1.0)
        held = proto.Seen()
        held.disclosed(_wire(proto.disclosed_to_message(eng.get_disclosed())))
        for t, x in enumerate(xs[2:]):
            eng.receive_example(t, x, 1.0, 1.0)
        for seen in (proto.Seen(), held):
            since = seen.factors.n
            good = proto.disclosed_to_message(eng.get_disclosed(), since)
            before = _seen_bytes(seen) + (seen.factors.L.rows().tobytes(),)
            for value in (1.0, -0.0, np.nan):
                for at in (since, len(good.lower) - 1):  # a slot of the first and last row
                    lower = good.lower.copy()
                    lower[at] = value
                    with pytest.raises(MalformedFrame, match="a diagonal slot of L is not 0.0"):
                        seen.disclosed(_wire(replace(good, lower=lower)))
                    assert _seen_bytes(seen) + (seen.factors.L.rows().tobytes(),) == before
            seen.disclosed(_wire(good))
            assert seen.factors.n == eng.n


class TestSnapshot:
    def test_empty_round_trip(self):
        cfg = make_config(0.5, 0.1, d=1)
        eng = ServerEngine(cfg)
        blob = proto.save_snapshot(eng)
        back = proto.load_snapshot(blob)
        assert back.n == 0 and back.epoch == 0
        assert proto.save_snapshot(back) == blob
        assert back.cfg.alpha == cfg.alpha and back.cfg.shared == cfg.shared

    def test_populated_round_trip_bitwise(self):
        rng = np.random.default_rng(5)
        for alpha in (0.0, 0.5, 1.0):
            ds, cfg, _ = random_instance(rng, alpha=alpha, d=1)
            eng = stream_into_engine(ServerEngine(cfg), ds.triples)
            blob = proto.save_snapshot(eng)
            back = proto.load_snapshot(blob)
            assert proto.save_snapshot(back) == blob
            assert back.epoch == eng.epoch
            for task in ds.tasks:
                a1 = eng.get_task_coefficients(task)
                a2 = back.get_task_coefficients(task)
                assert a1.tobytes() == a2.tobytes()

    def test_mid_stream_resume_equals_uninterrupted(self):
        rng = np.random.default_rng(6)
        for alpha in (0.0, 0.5, 1.0):
            ds, cfg, _ = random_instance(rng, alpha=alpha, d=1, ell_max=12)
            full = stream_into_engine(ServerEngine(cfg), ds.triples)
            cut = len(ds.triples) // 2
            part = stream_into_engine(ServerEngine(cfg), ds.triples[:cut])
            revived = proto.load_snapshot(proto.save_snapshot(part))
            stream_into_engine(revived, ds.triples[cut:])
            assert proto.save_snapshot(revived) == proto.save_snapshot(full)

    def test_corrupted_byte_detected(self):
        eng = ServerEngine(make_config(0.5, 0.1, d=1))
        blob = bytearray(proto.save_snapshot(eng))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(ChecksumMismatch):
            proto.load_snapshot(bytes(blob))

    def test_flipped_byte_is_a_checksum_mismatch_before_any_field(self, monkeypatch):
        # the head is checked first; then a byte flipped anywhere past it
        # fails the CRC before any other field is parsed
        eng = ServerEngine(make_config(0.5, 0.1, d=1))
        for t, x in enumerate(make_inputs(np.random.default_rng(27), 3, unit=True)):
            eng.receive_example(t % 2, x, 1.0, 1.0)
        good = proto.save_snapshot(eng)
        read, body = [], proto._read_body
        monkeypatch.setattr(proto, "_read_body",
                            lambda r, row: read.append(row.cls.__name__) or body(r, row))
        for at in range(8, len(good)):
            flipped = bytearray(good)
            flipped[at] ^= 0xFF
            read.clear()
            with pytest.raises(ChecksumMismatch):
                proto.load_snapshot(bytes(flipped))
            assert read == ["SnapshotHead"], at

    def test_loading_a_file_never_holds_it_whole(self, tmp_path):
        # read field by field: no read is larger than the largest array,
        # and what the load frees is less than half the file
        rng = np.random.default_rng(28)
        eng = ServerEngine(make_config(0.5, 0.1, d=1))
        for t, x in enumerate(make_inputs(rng, 300, dim=4, unit=True)):
            eng.receive_example(t % 5, x, float(rng.normal()), 1.0)
        snap = tmp_path / "engine.snap"
        with open(snap, "wb") as fh:
            proto.save_snapshot_to(fh, eng)
        size, sizes = snap.stat().st_size, []

        class Recorded(io.FileIO):
            def read(self, n=-1):
                sizes.append(n)
                return super().read(n)

            def readinto(self, b):
                sizes.append(len(b))
                return super().readinto(b)

        with Recorded(snap) as fh:
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                back = proto.load_snapshot_from(fh)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert proto.save_snapshot(back) == snap.read_bytes() == proto.save_snapshot(eng)
        assert 0 < max(sizes) <= eng.H.packed.nbytes < size / 2
        assert peak - kept < size / 2, (peak - base, kept - base, size)

    def test_bad_magic_and_version(self):
        eng = ServerEngine(make_config(0.5, 0.1))
        blob = proto.save_snapshot(eng)
        with pytest.raises(MalformedFrame):
            proto.load_snapshot(b"XXXX" + blob[4:])
        with pytest.raises(MalformedFrame):
            proto.load_snapshot(b"MT")
        versioned = proto.MAGIC + struct.pack("<I", 99) + b"\x00" * 8
        with pytest.raises(UnsupportedVersion):
            proto.load_snapshot(versioned)

    def test_duplicate_task_slot_rejected(self):
        # a task listing one input twice would take a re-rating of its
        # other input as new to the task and grow its block past its inputs
        eng = ServerEngine(make_config(0.5, 0.1, d=1))
        for x in make_inputs(np.random.default_rng(8), 2, unit=True):
            eng.receive_example(0, x, 1.0, 1.0)
        body = bytearray(proto.save_snapshot(eng)[:-4])
        # the one task ends with its slots (2 x u32), y, w and packed R
        at = len(body) - 8 * (2 + 2 + 3) - 8
        assert struct.unpack_from("<II", body, at) == (0, 1)
        struct.pack_into("<II", body, at, 1, 1)
        blob = bytes(body) + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        with pytest.raises(MalformedFrame, match="twice"):
            proto.load_snapshot(blob)

    def test_task_slot_out_of_range_rejected(self):
        # a slot past the pool would index an input the engine lacks
        eng = ServerEngine(make_config(0.5, 0.1, d=1))
        for x in make_inputs(np.random.default_rng(8), 2, unit=True):
            eng.receive_example(0, x, 1.0, 1.0)
        body = bytearray(proto.save_snapshot(eng)[:-4])
        at = len(body) - 8 * (2 + 2 + 3) - 8
        assert struct.unpack_from("<II", body, at) == (0, 1)
        struct.pack_into("<I", body, at + 4, eng.n)
        with pytest.raises(MalformedFrame, match="task slot 2 out of range"):
            proto.load_snapshot(_with_crc(body))

    @pytest.mark.parametrize("field, value", [(0, float("nan")), (1, -5.0)],
                             ids=["y-nan", "w-negative"])
    def test_task_observation_the_engine_refuses_is_malformed(self, field, value):
        # a submit would refuse such a response or weight; a repeat of the
        # input would then merge into it
        eng = ServerEngine(make_config(0.5, 0.1, d=1))
        for x in make_inputs(np.random.default_rng(8), 2, unit=True):
            eng.receive_example(0, x, 1.0, 1.0)
        body = bytearray(proto.save_snapshot(eng)[:-4])
        # slots (2 x u32), then y and w (2 x f64 each), then packed R
        at = len(body) - 8 * (2 + 2 + 3) + 16 * field
        assert struct.unpack_from("<dd", body, at) == (1.0, 1.0)
        struct.pack_into("<d", body, at, value)
        with pytest.raises(MalformedFrame, match="task 0 has a response"):
            proto.load_snapshot(_with_crc(body))

    @pytest.mark.parametrize("at, value", [(8, 2.0), (16, 0.0), (16, float("nan"))],
                             ids=["alpha-2", "lam-0", "lam-nan"])
    def test_config_the_model_refuses_is_malformed(self, at, value):
        # alpha is the f64 after the version word, lam the next one
        body = bytearray(proto.save_snapshot(ServerEngine(make_config(0.5, 0.1)))[:-4])
        assert struct.unpack_from("<dd", body, 8) == (0.5, 0.1)
        struct.pack_into("<d", body, at, value)
        with pytest.raises(MalformedFrame, match="alpha|lam"):
            proto.load_snapshot(_with_crc(body))

    def test_corrupted_snapshots_raise_only_protocol_errors(self):
        rng = np.random.default_rng(99)
        ds, cfg, _ = random_instance(rng, m_max=3, ell_max=4, n_max=6, d=1)
        good = proto.save_snapshot(stream_into_engine(ServerEngine(cfg), ds.triples))
        for _ in range(2000):
            body = bytearray(good[:-4])
            for _ in range(int(rng.integers(1, 4))):
                body[int(rng.integers(0, len(body)))] = int(rng.integers(0, 256))
            if rng.random() < 0.2:
                del body[int(rng.integers(0, len(body))):]
            try:
                proto.load_snapshot(_with_crc(body))
            except ProtocolError:
                pass

    def test_duplicate_task_rejected(self):
        # a second block for task 0 would replace the first, while y_cond
        # and H still hold both blocks' contributions
        eng = ServerEngine(make_config(0.5, 0.1, d=1))
        xs = make_inputs(np.random.default_rng(20), 2, unit=True)
        eng.receive_example(0, xs[0], 1.0, 1.0)
        eng.receive_example(5, xs[1], 1.0, 1.0)
        body = bytearray(proto.save_snapshot(eng)[:-4])
        # the last task block is i64 id, u32 count, slot, y, w and packed R
        at = len(body) - 8 - 4 - 4 - 3 * 8
        assert struct.unpack_from("<q", body, at) == (5,)
        struct.pack_into("<q", body, at, 0)
        blob = bytes(body) + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        with pytest.raises(MalformedFrame, match="task 0 listed twice"):
            proto.load_snapshot(blob)

    def test_duplicate_input_key_rejected(self):
        eng = ServerEngine(make_config(0.5, 0.1, d=1))
        xs = make_inputs(np.random.default_rng(22), 2, unit=True)
        for t, x in enumerate(xs):
            eng.receive_example(t, x, 1.0, 1.0)
        body = bytearray(proto.save_snapshot(eng)[:-4])
        at = body.index(xs[1].key)
        assert body.count(xs[1].key) == 1
        body[at:at + len(xs[1].key)] = xs[0].key
        blob = bytes(body) + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        with pytest.raises(MalformedFrame, match="input key b'x-0000' listed twice"):
            proto.load_snapshot(blob)

    def test_lookup_kernel_state_round_trips(self):
        rng = np.random.default_rng(7)
        keys = [b"s1", b"s2", b"s3"]
        a = rng.standard_normal((3, 3))
        gram = a @ a.T + 3.0 * np.eye(3)
        spec = KernelSpec.lookup(keys, gram)
        cfg = MixedEffectConfig(
            alpha=0.5, lam=0.1, shared=spec, individual=spec,
            bias=BiasBasis.constant(),
        )
        eng = ServerEngine(cfg)
        for i, k in enumerate(keys):
            eng.receive_example(0, InputPoint(k, None), float(i), 1.0)
        blob = proto.save_snapshot(eng)
        back = proto.load_snapshot(blob)
        assert proto.save_snapshot(back) == blob
        assert back.cfg.shared == spec


class TestDaemon:
    def test_submit_then_read_epoch_consistent(self):
        rng = np.random.default_rng(8)
        cfg = make_config(0.5, 0.1, d=1)
        with daemon(cfg, {0: b"secret"}) as (eng, srv):
            with RemoteServer(srv.address, task=0, token=b"secret") as conn:
                x = make_inputs(rng, 1, unit=True)[0]
                receipt = conn.submit(x, 1.5, 1.0)
                assert receipt.epoch == 1
                assert receipt.case == CASE_NEW_INPUT
                db = conn.get_disclosed()
                assert db.epoch == 1
                assert len(db.inputs) == 1
                cfg_back = conn.get_config()
                assert cfg_back.alpha == cfg.alpha
                tc = conn.task_coefficients()
                assert tc.epoch == 1 and tc.a_task.shape == (1,)

    def test_foreign_task_unauthorized(self):
        rng = np.random.default_rng(9)
        cfg = make_config(0.5, 0.1)
        with daemon(cfg, {0: b"alpha", 1: b"beta"}) as (eng, srv):
            with RemoteServer(srv.address, task=0, token=b"alpha") as conn:
                x = make_inputs(rng, 1, unit=True)[0]
                conn.submit(x, 1.0, 1.0)
                with pytest.raises(Unauthorized):
                    conn.task_coefficients(task=1)
                with pytest.raises(Unauthorized):
                    conn.submit(x, 1.0, 1.0, task=1)
                with pytest.raises(Unauthorized):
                    conn.submit(x, 1.0, 1.0, token=b"wrong")
            assert eng.epoch == 1  # the rejected writes never landed

    def test_empty_token_authorizes_nobody(self):
        # a client that sends no token must not match a task's empty token
        cfg = make_config(0.5, 0.1)
        with daemon(cfg, {3: b""}) as (eng, srv):
            with RemoteServer(srv.address, task=3) as conn:
                x = make_inputs(np.random.default_rng(25), 1, unit=True)[0]
                with pytest.raises(Unauthorized):
                    conn.submit(x, 1.0, 1.0)
                with pytest.raises(Unauthorized):
                    conn.task_coefficients()
            assert eng.epoch == 0

    def test_task_without_data_reads_shared_model(self):
        rng = np.random.default_rng(26)
        cfg = make_config(0.5, 0.1, d=1)
        with daemon(cfg, {0: b"a", 1: b"b"}) as (eng, srv):
            with RemoteServer(srv.address, task=0, token=b"a") as conn:
                for x in make_inputs(rng, 3, unit=True):
                    conn.submit(x, float(rng.normal()), 1.0)
            with RemoteServer(srv.address, task=1, token=b"b") as conn:
                view = conn.task_coefficients()
        assert view.epoch == 3 and len(view.inputs) == 3
        assert view.a_task.shape == (0,) and view.slots.shape == (0,)
        assert view.a_cond.shape == (3,)

    def test_every_refresh_returns_one_client_model(self):
        # an active refresh in process and over TCP and a passive refresh
        # all return the one model record, with intp slots; the passive
        # one carries the disclosed epoch, not that of its local engine
        cfg = make_config(0.5, 0.1, d=1)
        xs = make_inputs(np.random.default_rng(45), 4, unit=True)
        public = [(1, x, 0.1 * i, 1.0) for i, x in enumerate(xs[:3])]
        mine = [(xs[2], 0.5, 1.0), (xs[3], -0.5, 2.0)]
        with daemon(cfg, {0: b"tok"}) as (eng, srv):
            for t in public + [(0, *m) for m in mine]:
                eng.receive_example(*t)
            with RemoteServer(srv.address, task=0, token=b"tok") as conn:
                remote = Client(0, cfg, b"tok").active_refresh(conn)
            local = Client(0, cfg).active_refresh(eng)
        before = ServerEngine(cfg)
        for t in public:
            before.receive_example(*t)
        disclosed = before.get_disclosed()
        passive = Client(0, cfg).passive_refresh(disclosed, PrivateData(mine))
        for model in (local, remote, passive):
            assert type(model) is ClientModel and model.task == 0
            assert model.slots.dtype == np.intp and model.slots.tolist() == [2, 3]
            assert model.a_task.shape == (2,) and len(model.inputs) == 4
        assert local.epoch == remote.epoch == 5
        assert passive.epoch == disclosed.epoch == 3

    def test_active_model_over_tcp_equals_in_process_bitwise(self):
        rng = np.random.default_rng(27)
        for alpha in (0.0, 0.5, 1.0):
            for d in (0, 1):
                ds, _, _ = random_instance(rng, m_max=3, ell_max=8)
                cfg = make_config(alpha, 0.1, d=d)
                tokens = {t: b"tok-%d" % t for t in ds.tasks}
                with daemon(cfg, tokens) as (eng, srv):
                    stream_into_engine(eng, ds.triples)
                    for task in ds.tasks:
                        with RemoteServer(srv.address, task=task,
                                          token=tokens[task]) as conn:
                            got = Client(task, cfg).active_refresh(conn)
                        want = Client(task, cfg).active_refresh(eng)
                        assert got.inputs == want.inputs
                        for f in ("b", "a_cond", "a_task", "slots"):
                            g, w = getattr(got, f), getattr(want, f)
                            assert g.dtype == w.dtype
                            assert g.tobytes() == w.tobytes(), (alpha, d, f)

    def test_passive_model_over_tcp_equals_in_process_bitwise(self):
        # the factors a passive client downloads give the same bits as
        # the server's own, including a replay that appends new inputs
        # (90 inputs: enough rows for dtrsv's blocking to see the buffer)
        rng = np.random.default_rng(28)
        pool = make_inputs(rng, 90, dim=16, unit=True)
        fresh = make_inputs(rng, 2, dim=16, prefix=b"p", unit=True)
        private = PrivateData([(pool[0], 0.3, 1.0), (fresh[0], -0.7, 2.0),
                               (fresh[0], 0.1, 0.5), (fresh[1], 1.2, 1.0)])
        for alpha in (0.0, 0.5, 1.0):
            for d in (0, 1):
                cfg = make_config(alpha, 0.1, d=d)
                with daemon(cfg, {}) as (eng, srv):
                    for i in range(150):
                        eng.receive_example(int(rng.integers(0, 4)), pool[i % 90],
                                            float(rng.normal()),
                                            float(rng.uniform(0.5, 2.0)))
                    with RemoteServer(srv.address) as conn:
                        db = conn.get_disclosed()
                    want = Client(99, cfg).passive_refresh(eng.get_disclosed(), private)
                # the summary read once serves two refreshes alike
                for _ in range(2):
                    got = Client(99, cfg).passive_refresh(db, private)
                    assert got.epoch == want.epoch and got.inputs == want.inputs
                    for f in ("b", "a_cond", "a_task", "slots"):
                        g, w = getattr(got, f), getattr(want, f)
                        assert g.dtype == w.dtype
                        assert g.tobytes() == w.tobytes(), (alpha, d, f)

    def test_factors_past_the_pool_refused_connection_kept(self):
        # a since past the pool, in either read, is refused; the
        # connection then answers a since at the pool and before it
        cfg = make_config(0.5, 0.1, d=1)
        with daemon(cfg, {0: b"t"}) as (eng, srv):
            with RemoteServer(srv.address, task=0, token=b"t") as conn:
                conn.submit(make_inputs(np.random.default_rng(31), 1, unit=True)[0],
                            1.0, 1.0)
            before = proto.save_snapshot(eng)
            with socket.create_connection(srv.address, timeout=10) as raw:
                rfile, wfile = raw.makefile("rb"), raw.makefile("wb")
                for request in (proto.GetDisclosed(since=2),
                                proto.GetTaskCoeffs(task=0, token=b"t", since=2)):
                    proto.write_message(wfile, request)
                    reply = proto.read_message(rfile)
                    assert isinstance(reply, proto.Error)
                    assert reply.code == proto.ERR_MALFORMED
                    assert "inputs from 2 asked for, the pool has 1" in reply.detail
                for since in (1, 0):
                    proto.write_message(wfile, proto.GetDisclosed(since=since))
                    reply = proto.read_message(rfile)
                    assert reply.since == since and len(reply.d) == 1 - since
                    assert len(reply.inputs) == 1 - since and len(reply.y_cond) == 1
                proto.write_message(wfile, proto.GetTaskCoeffs(task=0, token=b"t", since=1))
                reply = proto.read_message(rfile)
                assert reply.since == 1 and len(reply.inputs) == 0 and reply.slots == (0,)
            assert proto.save_snapshot(eng) == before

    def test_idle_shutdown_does_not_wait_for_a_poll(self):
        # serve_forever polls every 0.5 s; shutdown must not wait for it
        for _ in range(3):
            srv = start_server(ServerEngine(make_config(0.5, 0.1)), ("127.0.0.1", 0), {})
            time.sleep(0.01)
            t0 = time.perf_counter()
            srv.shutdown()
            assert time.perf_counter() - t0 < 0.25
            srv.server_close()

    def test_engine_errors_travel_as_errors(self):
        rng = np.random.default_rng(10)
        cfg = make_config(0.5, 0.1)
        with daemon(cfg, {0: b"t"}) as (eng, srv):
            with RemoteServer(srv.address, task=0, token=b"t") as conn:
                x = make_inputs(rng, 1, unit=True)[0]
                with pytest.raises(NonPositiveWeight):
                    conn.submit(x, 1.0, -2.0)
                assert eng.epoch == 0

    def test_internal_error_replies_and_keeps_connection(self):
        # exp(30 * 30) overflows in the kernel: an error the engine does
        # not classify must come back as ERR_INTERNAL on a live connection
        rng = np.random.default_rng(16)
        cfg = make_config(0.5, 0.1)
        with daemon(cfg, {0: b"t"}) as (eng, srv):
            with RemoteServer(srv.address, task=0, token=b"t") as conn:
                conn.submit(make_inputs(rng, 1, unit=True)[0], 1.0, 1.0)
                big = InputPoint(b"big", np.array([30.0, 0.0, 0.0, 0.0]))
                with pytest.raises(ProtocolError, match="OverflowError"):
                    conn.submit(big, 1.0, 1.0)
                assert conn.get_disclosed().epoch == 1
            assert eng.epoch == 1

    def test_kernel_overflow_keeps_snapshot_and_connection(self):
        cfg = make_config(0.5, 0.1, d=1)
        with daemon(cfg, {1: b"t"}) as (eng, srv):
            with RemoteServer(srv.address, task=1, token=b"t") as conn:
                conn.submit(InputPoint(b"p", np.array([0.0, 1.0, 0.0, 0.0])), 1.0, 1.0)
                before = proto.save_snapshot(eng)
                huge = InputPoint(b"huge", np.array([1e200, 0.0, 0.0, 0.0]))
                with pytest.raises(ProtocolError, match="OverflowError"):
                    conn.submit(huge, 0.1, 1.0)
                assert proto.save_snapshot(eng) == before
                assert conn.get_disclosed().epoch == 1
                ok = InputPoint(b"ok", np.array([0.5, 0.5, 0.5, 0.5]))
                assert conn.submit(ok, 0.1, 1.0).case == CASE_NEW_INPUT

    def test_invalid_input_keeps_snapshot_and_connection(self):
        # non-finite features and a length other than the pool's are
        # refused with their own code before any planning
        code = proto.exception_to_code(InvalidInput("x"))
        assert code == proto.ERR_INVALID_INPUT == 12
        cfg = make_config(0.5, 0.1, d=1)
        with daemon(cfg, {1: b"t"}) as (eng, srv):
            with RemoteServer(srv.address, task=1, token=b"t") as conn:
                conn.submit(InputPoint(b"p", np.array([0.0, 1.0, 0.0, 0.0])), 1.0, 1.0)
                before = proto.save_snapshot(eng)
                bad = ([np.nan, 0.0, 0.0, 0.0], [0.0, np.inf, 0.0, 0.0],
                       [0.0, 0.0, -np.inf, 0.0], [0.5] * 3, [0.5] * 5, [])
                for feats in bad:
                    x = InputPoint(b"bad", np.array(feats, dtype=float))
                    with pytest.raises(InvalidInput):
                        conn.submit(x, 0.1, 1.0)
                    assert proto.save_snapshot(eng) == before
                assert conn.get_disclosed().epoch == 1
                ok = InputPoint(b"ok", np.array([0.5, 0.5, 0.5, 0.5]))
                assert conn.submit(ok, 0.1, 1.0).case == CASE_NEW_INPUT

    def test_nonfinite_response_refused_keeps_snapshot_and_connection(self):
        cfg = make_config(0.5, 0.1, d=1)
        with daemon(cfg, {1: b"t", 2: b"t"}) as (eng, srv):
            with RemoteServer(srv.address, task=1, token=b"t") as conn:
                p = InputPoint(b"p", np.array([0.0, 1.0, 0.0, 0.0]))
                conn.submit(p, 1.0, 1.0)
                before = proto.save_snapshot(eng)
                fresh = InputPoint(b"q", np.array([0.5, 0.5, 0.5, 0.5]))
                for y in (np.nan, np.inf, -np.inf):
                    for x, task in ((p, 1), (p, 2), (fresh, 1)):
                        msg = proto.SubmitExample(task=task, token=b"t", key=x.key,
                                                  features=x.features, y=y, w=1.0)
                        proto.write_message(conn._wfile, msg)
                        reply = proto.read_message(conn._rfile)
                        assert isinstance(reply, proto.Error)
                        assert reply.code == proto.ERR_INVALID_INPUT == 12
                    with pytest.raises(InvalidInput, match="response must be finite"):
                        conn.submit(p, y, 1.0)
                    assert proto.save_snapshot(eng) == before
                assert conn.get_disclosed().epoch == 1
                assert conn.submit(fresh, 0.1, 1.0).case == CASE_NEW_INPUT

    def test_garbage_frame_reply_then_state_survives(self):
        rng = np.random.default_rng(11)
        cfg = make_config(0.5, 0.1)
        with daemon(cfg, {0: b"t"}) as (eng, srv):
            raw = socket.create_connection(srv.address)
            try:
                raw.sendall(struct.pack("<I", 5) + b"\xff\xff\xff\xff\xff")
                rfile = raw.makefile("rb")
                reply = proto.read_message(rfile)
                assert isinstance(reply, proto.Error)
                assert reply.code in (proto.ERR_MALFORMED,
                                      proto.ERR_UNSUPPORTED_VERSION)
            finally:
                raw.close()
            with RemoteServer(srv.address, task=0, token=b"t") as conn:
                x = make_inputs(rng, 1, unit=True)[0]
                assert conn.submit(x, 1.0, 1.0).epoch == 1

    def test_undecodable_requests_answered_malformed(self):
        submit = proto.encode(proto.SubmitExample(task=0, token=b"t", key=b"k",
                                                  features=np.ones(4), y=1.0, w=1.0))
        payloads = (
            submit[:-3],  # cut short
            proto.encode(proto.GetDisclosed(since=0)) + b"\0",  # a byte past its body
            # a token longer than the payload
            proto.encode(proto.GetTaskCoeffs(task=0, token=b"t", since=0)).replace(
                struct.pack("<I", 1) + b"t", struct.pack("<I", 99) + b"t"),
        )
        cfg = make_config(0.5, 0.1, d=1)
        with daemon(cfg, {0: b"t"}) as (eng, srv):
            with RemoteServer(srv.address, task=0, token=b"t") as conn:
                conn.submit(make_inputs(np.random.default_rng(21), 1, unit=True)[0],
                            1.0, 1.0)
            before = proto.save_snapshot(eng)
            for payload in payloads:
                with socket.create_connection(srv.address, timeout=10) as raw:
                    raw.sendall(struct.pack("<I", len(payload)) + payload)
                    reply = proto.read_message(raw.makefile("rb"))
                assert isinstance(reply, proto.Error)
                assert reply.code == proto.ERR_MALFORMED
            assert proto.save_snapshot(eng) == before

    def test_lookup_key_count_past_the_payload_refused_connection_kept(self):
        # a request-sized Config whose table claims 2**32 - 1 keys is
        # refused from its tag, before any key is read, and the daemon
        # serves on, on the same connection
        payload = _lookup_config_claiming(0xFFFFFFFF, daemon_mod.MAX_REQUEST_FRAME)
        cfg = make_config(0.5, 0.1, d=1)
        with daemon(cfg, {0: b"t"}) as (eng, srv):
            with RemoteServer(srv.address, task=0, token=b"t") as conn:
                conn._wfile.write(struct.pack("<I", len(payload)) + payload)
                conn._wfile.flush()
                reply = proto.read_message(conn._rfile)
                assert isinstance(reply, proto.Error)
                assert (reply.code, reply.detail) == (proto.ERR_INTERNAL,
                                                      "unexpected message Config")
                x = make_inputs(np.random.default_rng(23), 1, unit=True)[0]
                assert conn.submit(x, 1.0, 1.0).epoch == 1

    def test_reply_only_types_refused_before_their_body(self, monkeypatch):
        # each reply-only type, well formed or not, gets code 11 and
        # "unexpected message <type>" from its tag alone: the daemon reads
        # no body but the GetConfig's, and the connection serves on
        read = []
        read_body = proto._read_body

        def spy(r, row):
            read.append(row.cls)
            return read_body(r, row)

        monkeypatch.setattr(proto, "_read_body", spy)
        spec = KernelSpec.lookup([b"a", b"b"], [[2.0, 1.0], [1.0, 2.0]])
        config = proto.encode(proto.Config(alpha=0.5, lam=0.1, shared=spec, individual=spec,
                                           bias_kind=BiasBasis.CONSTANT))
        bad_text = proto.encode(proto.Error(code=proto.ERR_INTERNAL, detail="ab"))
        cfg = make_config(0.5, 0.1, d=1)
        with daemon(cfg, {0: b"t"}) as (eng, srv):
            eng.receive_example(0, make_inputs(np.random.default_rng(24), 1, unit=True)[0],
                                1.0, 1.0)
            before = proto.save_snapshot(eng)
            payloads = [proto.encode(m) for m in (
                proto.config_to_message(cfg),
                proto.disclosed_to_message(eng.get_disclosed()),
                proto.task_coeffs_to_message(eng.task_coefficients(0)),
                proto.Ack(epoch=1, case=CASE_NEW_INPUT),
                proto.Error(code=proto.ERR_MALFORMED, detail="x"))]
            payloads += [  # a duplicate lookup key, and text that is not utf-8
                config.replace(struct.pack("<I", 1) + b"b", struct.pack("<I", 1) + b"a"),
                bad_text[:-2] + b"\xff\xfe"]
            with socket.create_connection(srv.address, timeout=10) as raw:
                rfile = raw.makefile("rb")
                for payload in payloads + [proto.encode(proto.GetConfig())]:
                    raw.sendall(struct.pack("<I", len(payload)) + payload)
                    (size,) = struct.unpack("<I", rfile.read(4))
                    got = rfile.read(size)
                    name = proto._ROW_OF_TAG[payload[1]].cls.__name__
                    want = (proto.config_to_message(cfg) if name == "GetConfig" else
                            proto.Error(code=proto.ERR_INTERNAL,
                                        detail="unexpected message " + name))
                    assert got == proto.encode(want), name
            assert proto.save_snapshot(eng) == before
        assert read == [proto.GetConfig]

    def test_oversized_request_refused_from_its_header(self):
        # the header alone is sent: a daemon that waited for the payload
        # would time out here instead of replying
        cfg = make_config(0.5, 0.1, d=1)
        with daemon(cfg, {0: b"t"}) as (eng, srv):
            with RemoteServer(srv.address, task=0, token=b"t") as conn:
                x = make_inputs(np.random.default_rng(22), 1, unit=True)[0]
                conn.submit(x, 1.0, 1.0)
                before = proto.save_snapshot(eng)
                with socket.create_connection(srv.address, timeout=10) as raw:
                    raw.sendall(struct.pack("<I", daemon_mod.MAX_REQUEST_FRAME + 1))
                    reply = proto.read_message(raw.makefile("rb"))
                assert isinstance(reply, proto.Error)
                assert reply.code == proto.ERR_MALFORMED
                assert proto.save_snapshot(eng) == before
                assert conn.submit(x, 2.0, 1.0).epoch == 2

    def test_interleaved_clients_match_offline_solver(self):
        rng = np.random.default_rng(12)
        cfg = make_config(0.4, 0.05, d=1)
        pool = make_inputs(rng, 8, unit=True)
        ds = Dataset()
        per_task = {j: [] for j in range(3)}
        for j in range(3):
            for _ in range(5):
                x = pool[int(rng.integers(0, len(pool)))]
                y = float(rng.normal())
                per_task[j].append((x, y, 1.0))
        tokens = {j: b"tok-%d" % j for j in range(3)}
        with daemon(cfg, tokens) as (eng, srv):
            conns = {
                j: RemoteServer(srv.address, task=j, token=tokens[j])
                for j in range(3)
            }
            try:
                for i in range(5):  # round-robin interleaving
                    for j in range(3):
                        x, y, w = per_task[j][i]
                        conns[j].submit(x, y, w)
                        ds.add(j, x, y, w)
                coeffs = solve_condensed(ds, cfg)
                st = build_index_structures(merge_repeats(ds))
                xs = probe_points(rng, st.unique_inputs)
                want = predictions_grid(coeffs, cfg, [0, 1, 2], xs)
                for j in range(3):
                    model = Client(j, cfg).active_refresh(conns[j])
                    got = [predict_client(model, cfg, x) for x in xs]
                    assert rel_err(got, want[j]) < 1e-8
            finally:
                for c in conns.values():
                    c.close()

    def test_concurrent_submits_total_epoch_order(self):
        rng = np.random.default_rng(13)
        cfg = make_config(0.5, 0.1)
        tokens = {0: b"a", 1: b"b"}
        pts = {j: make_inputs(rng, 15, prefix=b"t%d-" % j, unit=True)
               for j in (0, 1)}
        epochs = {0: [], 1: []}
        with daemon(cfg, tokens) as (eng, srv):
            def writer(j):
                with RemoteServer(srv.address, task=j, token=tokens[j]) as conn:
                    for x in pts[j]:
                        epochs[j].append(conn.submit(x, 0.5, 1.0).epoch)

            threads = [threading.Thread(target=writer, args=(j,)) for j in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        seen = epochs[0] + epochs[1]
        assert sorted(seen) == list(range(1, 31))
        # each client observed its own writes in increasing order
        assert epochs[0] == sorted(epochs[0])
        assert epochs[1] == sorted(epochs[1])


def _disclosed_bytes(db):
    # everything a DisclosedDB holds, as bytes
    f = db.factors
    return (db.epoch, db.inputs.keys, db.inputs.lengths.tobytes(),
            db.inputs.values.tobytes(), np.asarray(db.y_cond).tobytes(),
            db.H.packed.tobytes(), f.L.dense().tobytes(), f.D.values.tobytes(),
            f.M.tobytes(), f.M.shape)


def _coeffs_bytes(model):
    # everything a ClientModel holds, as bytes
    return (model.task, model.epoch, model.inputs.keys, model.inputs.lengths.tobytes(),
            model.inputs.values.tobytes(), model.b.tobytes(), model.a_cond.tobytes(),
            model.a_task.tobytes(), model.slots.tobytes())


def _seen_bytes(seen):
    f = seen.factors
    return (seen.inputs.keys, seen.inputs.lengths.tobytes(), seen.inputs.values.tobytes(),
            f.L.dense().tobytes(), f.D.values.tobytes(), f.M.tobytes())


class TestSinceDeltas:
    """A connection reads each input and factor row once: a read asks
    for the part past what it holds, and returns views of what it holds
    at the reply's n."""

    def test_one_connection_reads_as_fresh_connections_do(self):
        # new inputs, repeats of a global input and of a task's own, with
        # active and passive reads between them; the pool crosses the
        # buffers' capacities of 8, 16 and 32
        rng = np.random.default_rng(41)
        pool = make_inputs(rng, 40, dim=6, unit=True)
        private = PrivateData([(pool[0], 0.4, 1.0),
                               (make_inputs(rng, 1, dim=6, prefix=b"own", unit=True)[0],
                                -0.2, 2.0)])
        tokens = {t: b"tok-%d" % t for t in range(4)}
        cfg = make_config(0.5, 0.1, d=1)
        kept, cases = [], set()
        with daemon(cfg, tokens) as (eng, srv):
            with RemoteServer(srv.address) as writer, RemoteServer(srv.address) as conn:
                for i in range(140):
                    task = int(rng.integers(0, 4))
                    x = pool[min(int(rng.integers(0, i // 3 + 1)), 39)]
                    cases.add(writer.submit(x, float(rng.normal()), 1.0, task=task,
                                            token=tokens[task]).case)
                    if rng.random() < 0.5:
                        continue
                    if rng.random() < 0.5:
                        db = conn.get_disclosed()
                        with RemoteServer(srv.address) as fresh:
                            want = fresh.get_disclosed()
                        got = _disclosed_bytes(db)
                        assert got == _disclosed_bytes(want)
                        kept.append((db, got, _disclosed_bytes))
                        # a passive session appends private inputs
                        Client(99, cfg).passive_refresh(db, private)
                    else:
                        conn.token = tokens[task]
                        view = conn.task_coefficients(task)
                        with RemoteServer(srv.address, token=tokens[task]) as fresh:
                            want = fresh.task_coefficients(task)
                        got = _coeffs_bytes(view)
                        assert got == _coeffs_bytes(want)
                        kept.append((view, got, _coeffs_bytes))
        assert cases == {CASE_NEW_INPUT, CASE_REPEAT_GLOBAL, CASE_REPEAT_TASK}
        assert eng.n > 32 and len(kept) > 30
        # what a read returned never changes
        for read, got, as_bytes in kept:
            assert as_bytes(read) == got

    def test_passive_refresh_leaves_the_cache_as_it_was(self):
        # the session's engine appends private inputs in place, past the
        # rows the cache holds; the cache copies its rows out when it
        # next grows, and its reads still equal a fresh connection's
        rng = np.random.default_rng(42)
        pool = make_inputs(rng, 12, dim=6, unit=True)
        mine = make_inputs(rng, 2, dim=6, prefix=b"own", unit=True)
        cfg = make_config(0.5, 0.1, d=1)
        with daemon(cfg, {}) as (eng, srv):
            for i, x in enumerate(pool[:10]):
                eng.receive_example(i % 3, x, float(rng.normal()), 1.0)
            with RemoteServer(srv.address) as conn:
                db = conn.get_disclosed()
                seen = conn._seen
                before = _seen_bytes(seen)
                local = ServerEngine.from_disclosed(db, cfg)
                for x in mine:
                    local.receive_example(7, x, 0.5, 1.0)
                # appended in place, with no copy of L
                assert local.factors.L._buf is seen.factors.L._buf
                assert _seen_bytes(seen) == before and seen.factors.n == 10
                rows = local.factors.L.dense().tobytes()
                Client(7, cfg).passive_refresh(db, PrivateData([(mine[0], 1.0, 1.0)]))
                assert _seen_bytes(seen) == before
                for x in pool[10:]:
                    eng.receive_example(0, x, 0.3, 1.0)
                grown = conn.get_disclosed()
                assert seen.factors.L._buf is not local.factors.L._buf
                assert local.factors.L.dense().tobytes() == rows
                with RemoteServer(srv.address) as fresh:
                    assert _disclosed_bytes(grown) == _disclosed_bytes(fresh.get_disclosed())

    def test_since_past_the_pool_refused(self):
        eng = ServerEngine(make_config(0.5, 0.1, d=1))
        for t, x in enumerate(make_inputs(np.random.default_rng(43), 3, unit=True)):
            eng.receive_example(t, x, 1.0, 1.0)
        for since in (0, 3):
            assert len(proto.disclosed_to_message(eng.get_disclosed(), since).inputs) == 3 - since
        with pytest.raises(MalformedFrame, match="inputs from 4 asked for, the pool has 3"):
            proto.disclosed_to_message(eng.get_disclosed(), 4)
        with pytest.raises(MalformedFrame, match="inputs from 4 asked for, the pool has 3"):
            proto.task_coeffs_to_message(eng.task_coefficients(0), 4)

    def test_replies_that_do_not_fit_are_malformed(self):
        # the cache holds four inputs (a model read) and two factor rows
        rng = np.random.default_rng(44)
        xs = make_inputs(rng, 6, unit=True)
        cfg = make_config(0.5, 0.1, d=1)
        eng = ServerEngine(cfg)
        seen = proto.Seen()
        for t, x in enumerate(xs[:2]):
            eng.receive_example(t, x, 1.0, 1.0)
        seen.disclosed(_wire(proto.disclosed_to_message(eng.get_disclosed())))
        for t, x in enumerate(xs[2:4]):
            eng.receive_example(t, x, 1.0, 1.0)
        seen.task_coeffs(_wire(proto.task_coeffs_to_message(
            eng.task_coefficients(0), 2)), 0)
        for x in xs[4:]:
            eng.receive_example(0, x, 1.0, 1.0)
        assert (len(seen.inputs), seen.factors.n) == (4, 2)
        before = _seen_bytes(seen)
        good = proto.disclosed_to_message(eng.get_disclosed(), 2)
        coeffs = proto.task_coeffs_to_message(eng.task_coefficients(0), 4)
        other = make_inputs(rng, 2, unit=True, prefix=b"o")
        moved = pool_of([xs[2].key, xs[3].key], [xs[2].features, xs[2].features])
        renamed = [x.key for x in (xs[2], other[0], xs[4], xs[5])]
        bad = (
            (proto.disclosed_to_message(eng.get_disclosed(), 1),
             "factor rows from 1, but 2 are held"),
            (proto.disclosed_to_message(eng.get_disclosed(), 3),
             "factor rows from 3, but 2 are held"),
            (replace(good, d=good.d[:-1]), "factors of 3 inputs, not 4"),
            (replace(good, lower=good.lower[:-1]), "17 entries of L do not fit rows 2..6"),
            (replace(good, m=good.m[:-1]), "3 entries of M are not a multiple of 4"),
            (replace(good, m=np.repeat(good.m, 2)), "rows of M with 2 entries, not 1"),
            (replace(good, inputs=pool_of(renamed, [x.features for x in xs[2:]])),
             "inputs 2..4 are not the ones held"),
            (replace(good, inputs=pool_of(
                moved.keys + good.inputs.keys[2:],
                [x.features for x in moved] + [x.features for x in xs[4:]])),
             "inputs 2..4 are not the ones held"),
            (replace(good, inputs=pool_of(
                good.inputs.keys[:3] + (xs[0].key,), [x.features for x in xs[2:6]])),
             "input key b'x-0000' listed twice"),
            (proto.task_coeffs_to_message(eng.task_coefficients(0), 5),
             "inputs from 5 do not continue the 4 held"),
            (replace(coeffs, slots=np.append(coeffs.slots[:-1], 6)), "task slot 6 out of range"),
        )
        for reply, match in bad:
            read = (seen.disclosed if isinstance(reply, proto.Disclosed)
                    else lambda msg: seen.task_coeffs(msg, 0))
            with pytest.raises(MalformedFrame, match=match):
                read(_wire(reply))
            assert _seen_bytes(seen) == before
        db = seen.disclosed(_wire(good))
        want = proto.Seen().disclosed(_wire(proto.disclosed_to_message(
            eng.get_disclosed())))
        assert _disclosed_bytes(db) == _disclosed_bytes(want)


class TestOneL:
    """A reader keeps one L: its Seen lends its factor rows to the engines
    seeded from its reads, which append their own rows in its buffer; it
    writes its next rows over them once those engines are gone, and
    copies its rows out while one lives."""

    @staticmethod
    def _served(n, seed):
        rng = np.random.default_rng(seed)
        eng = ServerEngine(make_config(0.5, 0.1, d=1))
        for t, x in enumerate(make_inputs(rng, n, dim=4, unit=True)):
            eng.receive_example(t % 5, x, float(rng.normal()), 1.0)
        return eng, rng

    @staticmethod
    def _reply(eng, seen):
        # the decoded reply to seen's next read
        return _wire(proto.disclosed_to_message(eng.get_disclosed(), seen.factors.n))

    def test_reads_allocate_no_copy_of_l(self):
        # between reads a passive session appends a private input in the
        # Seen's buffer and is gone; every other read brings a new row,
        # which goes over the session's
        eng, rng = self._served(300, 52)
        seen = proto.Seen()
        db = seen.disclosed(self._reply(eng, seen))
        buf = seen.factors.L._buf
        fresh = make_inputs(rng, 3, dim=4, prefix=b"new", unit=True)
        own = make_inputs(rng, 6, dim=4, prefix=b"own", unit=True)
        peaks = []
        for step in range(6):
            Client(99, eng.cfg).passive_refresh(db, PrivateData([(own[step], 0.5, 1.0)]))
            if step % 2:
                eng.receive_example(step, fresh[step // 2], float(rng.normal()), 1.0)
            reply = self._reply(eng, seen)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                db = seen.disclosed(reply)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
            assert seen.factors.L._buf is buf and seen.factors.n == eng.n
        assert seen.factors.L.rows().tobytes() == eng.factors.L.rows().tobytes()
        assert max(peaks) < 0.1 * eng.factors.L.rows().nbytes, peaks

    def test_passive_models_through_one_seen_equal_fresh_reads_bitwise(self):
        # six reads, each after new server inputs, each replaying a new
        # private input and a repeat of a served one; an engine seeded
        # from the third read lives through the fourth, which copies L
        eng, rng = self._served(40, 53)
        seen = proto.Seen()
        seen.disclosed(self._reply(eng, seen))
        buf, kept = seen.factors.L._buf, None
        for step in range(6):
            for x in make_inputs(rng, 3, dim=4, prefix=b"s%d" % step, unit=True):
                eng.receive_example(step % 4, x, float(rng.normal()), 1.0)
            mine = make_inputs(rng, 1, dim=4, prefix=b"own%d" % step, unit=True)[0]
            private = PrivateData([(mine, 0.3, 1.0), (eng.inputs[step], -0.2, 2.0)])
            db = seen.disclosed(self._reply(eng, seen))
            got = Client(7, eng.cfg).passive_refresh(db, private)
            fresh = proto.Seen().disclosed(_wire(proto.disclosed_to_message(eng.get_disclosed())))
            want = Client(7, eng.cfg).passive_refresh(fresh, private)
            assert _coeffs_bytes(got) == _coeffs_bytes(want)
            if kept is not None:
                assert seen.factors.L._buf is not buf
                assert kept.factors.L.rows().tobytes() == kept_rows
                buf, kept = seen.factors.L._buf, None
            assert seen.factors.L._buf is buf
            if step == 2:
                kept = ServerEngine.from_disclosed(db, eng.cfg)
                kept.receive_example(7, mine, 0.3, 1.0)
                assert kept.factors.L._buf is buf  # appended in place
                kept_rows = kept.factors.L.rows().tobytes()
        assert eng.n == 58  # within the 64 rows of the Seen's first buffer
        assert seen.factors.L.rows().tobytes() == eng.factors.L.rows().tobytes()


class _Sink:
    """A stream that keeps only the bytes it was written, counted."""

    def __init__(self):
        self.size = 0

    def write(self, data):
        self.size += len(data)

    def flush(self):
        pass


def _state_digest(y_cond, h_mat):
    # the bytes of y_cond and H, hashed
    return hashlib.sha256(np.asarray(y_cond).tobytes() + h_mat.packed.tobytes()).digest()


def _raw_reply(sock_file, request):
    # the payload of the reply to request, as the socket carried it
    proto.write_message(sock_file, request)
    (size,) = struct.unpack("<I", sock_file.read(4))
    return sock_file.read(size)


class TestDisclosedReplies:
    """A Disclosed reply takes the engine's arrays under the engine lock,
    H lent copy on write, and is written from them after it: its bytes
    are those of the in-process summary, and no array of it is copied."""

    def test_replies_equal_the_in_process_encoding(self):
        # several epochs, since = 0, a middle count and the whole pool
        rng = np.random.default_rng(45)
        cfg = make_config(0.5, 0.1, d=1)
        pool = make_inputs(rng, 30, dim=5, unit=True)
        with daemon(cfg, {}) as (eng, srv):
            with socket.create_connection(srv.address) as sock, \
                    sock.makefile("rwb") as f:
                for i in range(60):
                    x = pool[min(int(rng.integers(0, i // 2 + 1)), 29)]
                    eng.receive_example(int(rng.integers(0, 3)), x, float(rng.normal()), 1.0)
                    if i % 12 != 11:
                        continue
                    for since in (0, eng.n // 2, eng.n):
                        want = proto.encode(proto.disclosed_to_message(
                            eng.get_disclosed(), since))
                        assert _raw_reply(f, proto.GetDisclosed(since=since)) == want
        assert eng.epoch == 60 and eng.n > 16

    def test_built_reply_equals_its_decoded_self(self):
        rng = np.random.default_rng(46)
        eng = ServerEngine(make_config(0.5, 0.1, d=1))
        for t, x in enumerate(make_inputs(rng, 9, unit=True)):
            eng.receive_example(t % 2, x, float(rng.normal()), 1.0)
        for since in (0, 4, 9):
            msg = proto.disclosed_to_message(eng.get_disclosed(), since)
            assert isinstance(msg.lower, np.ndarray)
            assert _wire(msg) == msg and msg == _wire(msg)
        # unencoded, as an in-process reader passes it
        head = proto.Seen().disclosed(proto.disclosed_to_message(eng.get_disclosed()))
        want = proto.Seen().disclosed(_wire(proto.disclosed_to_message(eng.get_disclosed())))
        assert _disclosed_bytes(head) == _disclosed_bytes(want)

    def test_full_read_allocates_about_its_payload(self):
        # a connection's first read, from its request frame to its reply
        # frame, allocates a tenth of its payload at most: H and L's rows
        # are written as they are, not copied
        rng = np.random.default_rng(47)
        with daemon(make_config(0.5, 0.1, d=1), {}) as (eng, srv):
            for t, x in enumerate(make_inputs(rng, 400, dim=4, unit=True)):
                eng.receive_example(t % 5, x, float(rng.normal()), 1.0)
            request = proto.encode(proto.GetDisclosed(since=0))
            handler = SimpleNamespace(
                rfile=io.BytesIO(struct.pack("<I", len(request)) + request),
                wfile=_Sink(), server=srv)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                daemon_mod._Handler.handle(handler)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        payload = handler.wfile.size - 4
        assert payload > 1_000_000
        assert peak <= 0.1 * payload, (peak, payload)

    def test_delta_read_allocates_about_its_payload(self):
        # a read of the last input's row alone: H, most of its payload,
        # is written from the engine's buffer, not copied
        rng = np.random.default_rng(49)
        with daemon(make_config(0.5, 0.1, d=1), {}) as (eng, srv):
            for t, x in enumerate(make_inputs(rng, 400, dim=4, unit=True)):
                eng.receive_example(t % 5, x, float(rng.normal()), 1.0)
            request = proto.encode(proto.GetDisclosed(since=eng.n - 1))
            handler = SimpleNamespace(
                rfile=io.BytesIO(struct.pack("<I", len(request)) + request),
                wfile=_Sink(), server=srv)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                daemon_mod._Handler.handle(handler)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        payload = handler.wfile.size - 4
        assert 8 * 400 * 401 // 2 < payload < 1 << 20  # H, and little else
        assert peak <= 0.1 * payload, (peak, payload)

    def test_reads_under_a_writer_see_whole_epochs(self):
        # one writer and two readers, more threads than cores, switching
        # often: each reply's y_cond and H are those of one epoch
        rng = np.random.default_rng(48)
        cfg = make_config(0.5, 0.1, d=1)
        pool = make_inputs(rng, 150, dim=4, unit=True)
        tokens = {t: b"tok-%d" % t for t in range(3)}
        triples = [(int(rng.integers(0, 3)), pool[min(int(rng.integers(0, i // 4 + 1)), 149)],
                    float(rng.normal()), float(rng.uniform(0.5, 2.0))) for i in range(1000)]
        replies, failures = ([], []), []
        done = threading.Event()

        def write(address):
            try:
                with RemoteServer(address) as conn:
                    for task, x, y, w in triples:
                        conn.submit(x, y, w, task=task, token=tokens[task])
            except Exception as exc:
                failures.append(exc)
            finally:
                done.set()

        def read(address, out, fresh):
            # one reader reads deltas over one connection, the other
            # whole summaries over a new connection each time
            try:
                with RemoteServer(address) as conn:
                    while True:
                        last = done.is_set()
                        if fresh:
                            with RemoteServer(address) as once:
                                db = once.get_disclosed()
                        else:
                            db = conn.get_disclosed()
                        out.append((db.epoch, _state_digest(db.y_cond, db.H)))
                        if last:
                            return
            except Exception as exc:
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with daemon(cfg, tokens) as (eng, srv):
                threads = [threading.Thread(target=write, args=(srv.address,))]
                threads += [threading.Thread(target=read, args=(srv.address, out, fresh))
                            for out, fresh in zip(replies, (False, True))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures
        ref = ServerEngine(cfg)
        want = {0: _state_digest(ref.y_cond.values, ref.H)}
        for task, x, y, w in triples:
            ref.receive_example(task, x, y, w)
            want[ref.epoch] = _state_digest(ref.y_cond.values, ref.H)
        assert eng.epoch == ref.epoch == len(triples)
        for out in replies:
            epochs = [epoch for epoch, _ in out]
            assert epochs == sorted(epochs) and epochs[-1] == len(triples)
            for epoch, digest in out:
                assert digest == want[epoch], epoch


class TestDaemonConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "daemon.json"
        path.write_text(
            '{"alpha": 0.25, "lam": 0.01, "shared_kernel": "rbf-tags",\n'
            ' "individual_kernel": "linear-tags", "bias": "none",\n'
            ' "listen": {"host": "127.0.0.1", "port": 7001},\n'
            ' "snapshot": "/tmp/state.bin", "tokens": {"4": "s3cret"}}'
        )
        dc = load_daemon_config(str(path))
        assert dc.cfg.alpha == 0.25
        assert dc.cfg.lam == 0.01
        assert dc.cfg.bias_dim == 0
        assert dc.host == "127.0.0.1" and dc.port == 7001
        assert dc.snapshot_path == "/tmp/state.bin"
        assert dc.tokens == {4: b"s3cret"}

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"lam": 0.01}')
        with pytest.raises(ValueError):
            load_daemon_config(str(path))
        # a misspelt bias must not fall back to no bias
        path.write_text('{"alpha": 0.5, "lam": 0.01, "bias": "constnat"}')
        with pytest.raises(ValueError, match="bad daemon config"):
            load_daemon_config(str(path))

    MALFORMED = {
        "listen-list": '{"alpha": 0.5, "lam": 0.01, "listen": [1, 2]}',
        "top-level-list": '[{"alpha": 0.5, "lam": 0.01}]',
        "port-text": '{"alpha": 0.5, "lam": 0.01, "listen": {"port": "abc"}}',
        "port-too-large": '{"alpha": 0.5, "lam": 0.01, "listen": {"port": 70000}}',
        "port-negative": '{"alpha": 0.5, "lam": 0.01, "listen": {"port": -1}}',
        "port-fraction": '{"alpha": 0.5, "lam": 0.01, "listen": {"port": 7001.5}}',
        "host-number": '{"alpha": 0.5, "lam": 0.01, "listen": {"host": 7}}',
        "snapshot-number": '{"alpha": 0.5, "lam": 0.01, "snapshot": 3}',
        "token-empty": '{"alpha": 0.5, "lam": 0.01, "tokens": {"3": ""}}',
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_value_refused(self, tmp_path, case):
        path = tmp_path / "bad.json"
        path.write_text(self.MALFORMED[case])
        with pytest.raises(ValueError, match="bad daemon config") as exc:
            load_daemon_config(str(path))
        assert str(path) in str(exc.value)

    def test_port_bounds_accepted(self, tmp_path):
        path = tmp_path / "daemon.json"
        for port in (0, 65535):
            path.write_text('{"alpha": 0.5, "lam": 0.01, "snapshot": null,'
                            ' "listen": {"port": %d}}' % port)
            dc = load_daemon_config(str(path))
            assert dc.port == port and dc.snapshot_path is None

    @pytest.mark.parametrize("case", ["listen-list", "top-level-list"])
    def test_cli_serve_refuses_malformed_config(self, tmp_path, capsys, case):
        path = tmp_path / "bad.json"
        path.write_text(self.MALFORMED[case])
        assert cli.main(["serve", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: bad daemon config")

    @staticmethod
    def _refused_snapshot(case):
        good = proto.save_snapshot(ServerEngine(make_config(0.5, 0.1, d=1)))
        if case == "bad-magic":
            return b"XXXX" + good[4:]
        if case == "version":
            return b"MTLSgarbagegarbage"
        if case == "slot":
            return _snapshot_with_slot(1.0)
        if case in ("crc", "crc-kernel"):
            # the middle byte, or the shared kernel's tag, after alpha and lam
            flipped = bytearray(good)
            flipped[len(good) // 2 if case == "crc" else 24] ^= 0xFF
            return bytes(flipped)
        if case == "count":  # L's count claims 2**31 - 1 entries
            body = bytearray(good[:-4])
            at = len(body) - 16  # then D's, M's and the task count
            assert body[at : at + 4] == bytes(4)
            body[at : at + 4] = struct.pack("<I", 0x7FFFFFFF)
            return _with_crc(body)
        body = good[:-4] + b"\x00"  # a trailing byte under a valid CRC
        return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)

    @pytest.mark.parametrize("case", ["bad-magic", "version", "crc", "crc-kernel", "count",
                                      "malformed", "slot"])
    def test_cli_serve_refuses_bad_snapshot(self, tmp_path, capsys, monkeypatch,
                                            case):
        snap = tmp_path / "engine.snap"
        blob = self._refused_snapshot(case)
        snap.write_bytes(blob)
        path = tmp_path / "daemon.json"
        path.write_text(json.dumps({"alpha": 0.5, "lam": 0.1,
                                    "snapshot": str(snap)}))
        # a snapshot taken by mistake would serve at once and save over it
        monkeypatch.setattr(daemon_mod.DaemonServer, "serve_forever",
                            lambda self, *a, **k: None)
        assert cli.main(["serve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s: " % snap)
        if case == "slot":  # load_snapshot's MalformedFrame, as Seen.disclosed's
            assert err == "error: %s: a diagonal slot of L is not 0.0\n" % snap
        if case.startswith("crc"):  # before any field past the head is parsed
            assert err == "error: %s: snapshot CRC does not match\n" % snap
        if case == "count":  # refused before an array is made for it
            assert err == "error: %s: truncated payload\n" % snap
        assert snap.read_bytes() == blob

    def _refuses_snapshot_version(self, version, tmp_path, capsys, monkeypatch):
        good = proto.save_snapshot(ServerEngine(make_config(0.5, 0.1, d=1)))
        body = good[:4] + struct.pack("<I", version) + good[8:-4]
        snap = tmp_path / "engine.snap"
        snap.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        path = tmp_path / "daemon.json"
        path.write_text(json.dumps({"alpha": 0.5, "lam": 0.1, "snapshot": str(snap)}))
        monkeypatch.setattr(daemon_mod.DaemonServer, "serve_forever",
                            lambda self, *a, **k: None)
        assert cli.main(["serve", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: %s: snapshot version %d\n" % (
            snap, version)

    def test_cli_serve_refuses_version_1_snapshot(self, tmp_path, capsys, monkeypatch):
        # version 1 wrote the factors without their counts
        self._refuses_snapshot_version(1, tmp_path, capsys, monkeypatch)

    def test_cli_serve_refuses_version_2_snapshot(self, tmp_path, capsys, monkeypatch):
        # version 2 wrote each input's key and features in turn
        self._refuses_snapshot_version(2, tmp_path, capsys, monkeypatch)

    def test_cli_serve_refuses_version_3_snapshot(self, tmp_path, capsys, monkeypatch):
        # version 3 wrote the factors as a body of their own, after a
        # Disclosed body without since
        self._refuses_snapshot_version(3, tmp_path, capsys, monkeypatch)

    def test_cli_serve_refuses_version_4_snapshot(self, tmp_path, capsys, monkeypatch):
        # version 4 wrote L's rows without their diagonal slots
        self._refuses_snapshot_version(4, tmp_path, capsys, monkeypatch)

    def test_failed_snapshot_save_keeps_previous_file(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(18)
        ds, cfg, _ = random_instance(rng, m_max=2, ell_max=4, n_max=4, d=1)
        snap = tmp_path / "engine.snap"
        old = proto.save_snapshot(stream_into_engine(ServerEngine(cfg), ds.triples))
        snap.write_bytes(old)
        dc = DaemonConfig(cfg, "127.0.0.1", 0, str(snap), {})
        # serve() returns at once, as after Ctrl-C, and saves on the way out
        monkeypatch.setattr(daemon_mod.DaemonServer, "serve_forever",
                            lambda self, *a, **k: None)
        serve(dc)
        assert snap.read_bytes() == old  # resume + save is bit-exact

        def broken(stream, engine):
            raise RuntimeError("disk full")

        monkeypatch.setattr(proto, "save_snapshot_to", broken)
        with pytest.raises(RuntimeError, match="disk full"):
            serve(dc)
        assert snap.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["engine.snap"]

    def test_snapshot_directory_synced_after_the_rename(self, tmp_path, monkeypatch):
        # a crash right after the rename cannot lose it: the directory
        # that holds the new name is fsync'd once it is there
        snap = tmp_path / "engine.snap"
        synced, fsync = [], os.fsync

        def recording(fd):
            synced.append((stat.S_ISDIR(os.fstat(fd).st_mode), snap.exists()))
            fsync(fd)

        monkeypatch.setattr(os, "fsync", recording)
        daemon_mod.write_snapshot(str(snap), ServerEngine(make_config(0.5, 0.1)))
        assert synced == [(False, False), (True, True)]
        assert [p.name for p in tmp_path.iterdir()] == ["engine.snap"]

    def test_serve_logs_bound_port(self, monkeypatch, caplog):
        dc = DaemonConfig(make_config(0.5, 0.1), "127.0.0.1", 0, None, {})
        monkeypatch.setattr(daemon_mod.DaemonServer, "serve_forever",
                            lambda self, *a, **k: None)
        with caplog.at_level("INFO", logger="mtfuse.daemon"):
            host, port = serve(dc)
        (rec,) = [r for r in caplog.records if r.name == "mtfuse.daemon"]
        assert rec.levelname == "INFO"
        assert port != 0 and rec.args == (host, port)
        assert rec.getMessage() == "listening on 127.0.0.1 port %d" % port

    def test_snapshot_with_other_model_config_refused(self, tmp_path):
        rng = np.random.default_rng(17)
        ds, cfg, _ = random_instance(rng, m_max=2, ell_max=4, n_max=4, d=1,
                                     alpha=0.5)
        snap = tmp_path / "engine.snap"
        snap.write_bytes(
            proto.save_snapshot(stream_into_engine(ServerEngine(cfg), ds.triples))
        )
        dc = DaemonConfig(make_config(0.9, cfg.lam, d=1), "127.0.0.1", 0,
                          str(snap), {})
        raised = []

        def run():
            try:
                serve(dc)
            except ValueError as exc:
                raised.append(str(exc))

        # a thread with a timeout, so a serve() past the check cannot hang
        t = threading.Thread(target=run, daemon=True)
        t.start()
        t.join(timeout=30)
        assert not t.is_alive(), "serve started from a mismatched snapshot"
        assert len(raised) == 1 and str(snap) in raised[0]
