"""TCP daemon around a ServerEngine, plus the matching client proxy.

One mutex serializes every engine access: submissions apply in arrival
order, and a read takes its reply's data under the lock and writes it
outside it.  A Disclosed reply holds the engine's own arrays
(ServerEngine.get_disclosed): the pool's tail, L's rows since the
reader's count and H, which the engine lends copy on write, with only
y_cond (8n bytes) copied; the reply is written as its pieces, each
array as it is, and dropped once written, so that a commit copies H
only while a reply is being written.  A read sends only the part of
the pool and the factors that the reader lacks (see protocol.Seen).  A
transport failure can only lose a response, never corrupt engine state,
because the engine finishes (or rejects) an update before any reply
bytes are written.  A snapshot is written as its pieces, and loaded
field by field from its file after one pass over it for its CRC, each
array straight into the engine's own buffer.  Tokens are compared in
constant time by CPython's own compare, so no mtfuse process maps
OpenSSL.
"""

import json
import logging
import os
import signal
import socket
import socketserver
import tempfile
import threading
# CPython's own constant-time compare, the one hmac.compare_digest falls
# back to without OpenSSL: imported from here, it maps no libcrypto
from _operator import _compare_digest
from typing import NamedTuple, Optional

import numpy as np

from . import protocol as proto
from .errors import EngineError, ProtocolError, Unauthorized, UnexpectedMessage
from .kernels import InputPoint, MixedEffectConfig
from .server import ServerEngine, UpdateReceipt

_log = logging.getLogger(__name__)

# largest request frame, refused from its header before authentication;
# replies keep protocol.MAX_FRAME (a Disclosed at n=4,000 is ~64 MB)
MAX_REQUEST_FRAME = 1 << 20
# the messages the daemon answers; any other is refused before its body
REQUESTS = (proto.SubmitExample, proto.GetDisclosed, proto.GetTaskCoeffs, proto.GetConfig)


# ===== daemon configuration file =========================================


class DaemonConfig(NamedTuple):
    """Parsed daemon config: model config, listen address, tokens."""

    cfg: MixedEffectConfig
    host: str
    port: int
    snapshot_path: Optional[str]
    tokens: dict


def load_daemon_config(path):
    """Read a JSON daemon config.

    Keys: alpha, lam, shared_kernel, individual_kernel ("rbf-tags" or
    "linear-tags"), bias ("constant" or "none"), listen {host, port},
    snapshot (path or null), tokens {task-id: non-empty token-string}.
    Any malformed value raises ValueError("bad daemon config ...").
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        cfg = MixedEffectConfig(
            alpha=raw["alpha"],
            lam=raw["lam"],
            shared=proto.kernel_from_name(raw.get("shared_kernel", "rbf-tags")),
            individual=proto.kernel_from_name(
                raw.get("individual_kernel", "linear-tags")
            ),
            bias=proto.bias_from_name(raw.get("bias", "constant")),
        )
        listen = raw.get("listen", {})
        host = listen.get("host", "127.0.0.1")
        port = listen.get("port", 0)
        snapshot = raw.get("snapshot")
        tokens = {
            int(task): tok.encode("utf-8")
            for task, tok in raw.get("tokens", {}).items()
        }
        if not all(tokens.values()):
            raise ValueError("a task's token must not be empty")
        if not isinstance(host, str):
            raise ValueError("listen host must be a string, got %r" % (host,))
        if type(port) is not int or not 0 <= port <= 65535:
            raise ValueError("listen port must be an integer from 0 to 65535, "
                             "got %r" % (port,))
        if snapshot is not None and not isinstance(snapshot, str):
            raise ValueError("snapshot must be a path or null, got %r" % (snapshot,))
    except (KeyError, ValueError, AttributeError, TypeError) as exc:
        raise ValueError("bad daemon config %s: %s" % (path, exc)) from exc
    return DaemonConfig(cfg, host, port, snapshot, tokens)


# ===== server side =======================================================


class _Handler(socketserver.StreamRequestHandler):
    def setup(self):
        super().setup()
        # a reply is a few writes, and a large one spans many segments:
        # send each last, short one at once, without waiting for the
        # client to acknowledge the ones before it
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def handle(self):
        serving = True
        while serving:
            try:
                msg = proto.read_message(self.rfile, MAX_REQUEST_FRAME, REQUESTS)
                if msg is None:
                    return
                reply = self.server.dispatch(msg)
            except ProtocolError as exc:
                # a frame that could not be read leaves the stream lost, but
                # a refused type was read whole: after it the connection serves on
                serving = isinstance(exc, UnexpectedMessage)
                reply = proto.Error(code=proto.exception_to_code(exc), detail=str(exc))
            except OSError:
                return
            try:
                proto.write_message(self.wfile, reply)
            except OSError:
                return
            # a Disclosed reply holds H as lent: while it lives, every
            # commit would copy H
            reply = None


class DaemonServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server; engine access is serialized by one lock."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, engine, address, tokens):
        self.engine = engine
        self.tokens = {int(t): bytes(tok) for t, tok in tokens.items()}
        self.lock = threading.Lock()
        super().__init__(address, _Handler)

    def _authorized(self, task, token):
        expected = self.tokens.get(int(task))
        # an empty token would match a client that sends none
        return bool(expected) and _compare_digest(expected, token)

    def dispatch(self, msg):
        """The reply to msg, one of REQUESTS."""
        try:
            if isinstance(msg, proto.SubmitExample):
                if not self._authorized(msg.task, msg.token):
                    raise Unauthorized("bad token for task %d" % msg.task)
                x = InputPoint(msg.key, msg.features)
                with self.lock:
                    receipt = self.engine.receive_example(msg.task, x, msg.y, msg.w)
                reply = proto.Ack(epoch=receipt.epoch, case=receipt.case)
            elif isinstance(msg, proto.GetDisclosed):
                with self.lock:
                    db = self.engine.get_disclosed()
                reply = proto.disclosed_to_message(db, msg.since)
            elif isinstance(msg, proto.GetTaskCoeffs):
                if not self._authorized(msg.task, msg.token):
                    raise Unauthorized("bad token for task %d" % msg.task)
                with self.lock:
                    model = self.engine.task_coefficients(msg.task)
                reply = proto.task_coeffs_to_message(model, msg.since)
            else:  # GetConfig
                reply = proto.config_to_message(self.engine.get_config())
            return reply
        except (EngineError, ValueError, TypeError) as exc:
            err = proto.Error(code=proto.exception_to_code(exc), detail=str(exc))
        except Exception as exc:
            # anything else (an OverflowError in a kernel, say) is a fault
            # of this request only: report it and keep the connection
            _log.exception("internal error serving %s", type(msg).__name__)
            err = proto.Error(
                code=proto.ERR_INTERNAL,
                detail="internal error: %s: %s" % (type(exc).__name__, exc),
            )
        return err

    @property
    def address(self):
        return self.server_address[:2]

    def shutdown(self):
        # serve_forever sees the stop request only when its poll returns:
        # a listening socket shut for reading polls readable at once, so
        # the loop stops now and not at its next 0.5 s timeout
        try:
            self.socket.shutdown(socket.SHUT_RDWR)
        except OSError:  # shut already
            pass
        super().shutdown()


def start_server(engine, address, tokens):
    """Start a daemon in a background thread; returns the server object.

    Call .shutdown() then .server_close() to stop it.
    """
    srv = DaemonServer(engine, address, tokens)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    return srv


def write_snapshot(path, engine):
    """Replace the snapshot file at path with the engine's state.

    The bytes go, as their pieces, to a temporary file in the same
    directory, which is flushed, fsync'd and then renamed over path, and
    the directory is fsync'd after the rename: a failure or a crash at
    any point leaves the previous snapshot whole, and once this returns
    the new one stays.
    """
    folder = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".", suffix=".tmp",
                               dir=folder)
    try:
        with os.fdopen(fd, "wb") as fh:
            proto.save_snapshot_to(fh, engine)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    fd = os.open(folder, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def serve(daemon_config):
    """Run the daemon from a DaemonConfig until interrupted.

    Loads the snapshot file when one exists, field by field from the
    open file (protocol.load_snapshot_from), and saves it back on
    shutdown (atomically, see write_snapshot).
    """
    path = daemon_config.snapshot_path
    if path and os.path.exists(path):
        try:
            with open(path, "rb") as fh:
                engine = proto.load_snapshot_from(fh)
        except ProtocolError as exc:
            raise type(exc)("%s: %s" % (path, exc)) from None
        if proto.config_to_message(engine.cfg) != proto.config_to_message(daemon_config.cfg):
            raise ValueError("snapshot %s holds a model config that differs from the"
                             " config file's; refusing to start" % path)
    else:
        engine = ServerEngine(daemon_config.cfg)
    srv = DaemonServer(engine, (daemon_config.host, daemon_config.port), daemon_config.tokens)
    _log.info("listening on %s port %d", *srv.address)

    def _terminate(signum, frame):
        raise SystemExit(0)

    # SIGTERM must run the same snapshot-saving exit path as Ctrl-C
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        srv.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        srv.server_close()
        if path:
            write_snapshot(path, engine)
    return srv.address


# ===== client side =======================================================


class RemoteServer:
    """Socket proxy offering the same read surface as ServerEngine.

    The connection keeps the pool's inputs and the factor rows it has
    read (a protocol.Seen): each read asks for the part past them, and
    returns views of them at the reply's n.
    """

    def __init__(self, address, task=None, token=b""):
        self.task = task
        self.token = token
        self._seen = proto.Seen()
        self._sock = socket.create_connection(address)
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")

    def close(self):
        for f in (self._rfile, self._wfile):
            try:
                f.close()
            except OSError:
                pass
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _rpc(self, msg, reply_cls):
        proto.write_message(self._wfile, msg)
        reply = proto.read_message(self._rfile)
        if reply is None:
            raise ProtocolError("server closed the connection")
        if isinstance(reply, proto.Error):
            proto.raise_for_error(reply)
        if not isinstance(reply, reply_cls):
            raise ProtocolError("expected %s, got %s"
                                % (reply_cls.__name__, type(reply).__name__))
        return reply

    def submit(self, x, y, w, task=None, token=None):
        msg = proto.SubmitExample(
            task=int(self.task if task is None else task),
            token=self.token if token is None else token,
            key=x.key,
            features=None if x.features is None else np.asarray(x.features),
            y=float(y),
            w=float(w),
        )
        ack = self._rpc(msg, proto.Ack)
        return UpdateReceipt(epoch=ack.epoch, case=ack.case)

    def get_disclosed(self):
        """The disclosed summary and the factors of its inputs."""
        since = self._seen.factors.n
        reply = self._rpc(proto.GetDisclosed(since=since), proto.Disclosed)
        return self._seen.disclosed(reply)

    def get_config(self):
        return proto.config_from_message(self._rpc(proto.GetConfig(), proto.Config))

    def task_coefficients(self, task=None):
        """The ClientModel of task (this proxy's by default)."""
        task = int(self.task if task is None else task)
        since = self._seen.inputs.n
        reply = self._rpc(proto.GetTaskCoeffs(task=task, token=self.token, since=since),
                          proto.TaskCoeffs)
        return self._seen.task_coeffs(reply, task)
